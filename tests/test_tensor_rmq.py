"""Differential tests for repro.tensor.rmq against numpy oracles.

Every primitive here carries an *exactness* contract (identical floats
/ identical indices to the obvious sequential formulation), so each
test is a randomized differential against the direct numpy answer.
"""

import numpy as np
import pytest

from repro.tensor.rmq import (
    build_table,
    grid_searchsorted,
    log_table,
    range_query,
)


class TestLogTable:
    def test_matches_floor_log2(self):
        table = log_table(2000)
        for i in range(1, 2001):
            assert table[i] == i.bit_length() - 1

    def test_cached_instance_reused(self):
        """One shared buffer serves every length, with the values a
        per-length construction gives."""
        for n in (64, 7, 300, 64, 1, 0):
            table = log_table(n)
            i = np.arange(1, n + 1)
            expected = np.zeros(n + 1, dtype=np.intp)
            expected[1:] = np.floor(np.log2(i)).astype(np.intp)
            assert table.dtype == np.intp
            np.testing.assert_array_equal(table, expected)
        assert np.shares_memory(log_table(64), log_table(64))
        assert np.shares_memory(log_table(64), log_table(300))
        assert not log_table(64).flags.writeable


class TestRangeQuery:
    @pytest.mark.parametrize("op,reducer", [(np.maximum, np.max),
                                            (np.minimum, np.min)])
    def test_random_ranges_bit_identical(self, op, reducer):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 257))
        table = build_table(x, op)
        log = log_table(x.shape[1])
        rows = rng.integers(0, 5, size=300)
        a = rng.integers(0, 256, size=300)
        b = a + 1 + rng.integers(0, 257 - a)
        got = range_query(table, log, op, rows, a, b)
        for k in range(300):
            assert got[k] == reducer(x[rows[k], a[k]:b[k]])

    def test_max_len_capped_table_answers_short_ranges(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 500))
        capped = build_table(x, np.maximum, max_len=32)
        full = build_table(x, np.maximum)
        assert capped.shape[0] < full.shape[0]
        log = log_table(500)
        rows = rng.integers(0, 3, size=200)
        a = rng.integers(0, 468, size=200)
        b = a + 1 + rng.integers(0, 32, size=200)
        np.testing.assert_array_equal(
            range_query(capped, log, np.maximum, rows, a, b),
            range_query(full, log, np.maximum, rows, a, b))


class TestGridSearchsorted:
    def test_matches_np_searchsorted_including_exact_ties(self):
        rng = np.random.default_rng(9)
        fs, t0, n = 2000.0, -0.73, 1500
        times = t0 + np.arange(n) / fs
        v = np.concatenate([
            rng.uniform(t0 - 0.1, t0 + n / fs + 0.1, size=200),
            times[rng.integers(0, n, size=50)],       # exact grid hits
            [t0, times[-1], t0 - 1.0, times[-1] + 1.0],
        ])
        np.testing.assert_array_equal(
            grid_searchsorted(t0, n, fs, v),
            np.searchsorted(times, v, side="left"))

    def test_preserves_input_shape(self):
        fs, t0 = 100.0, 0.0
        times = t0 + np.arange(50) / fs
        v = np.full((2, 3, 4), 0.123)
        assert grid_searchsorted(t0, len(times), fs, v).shape == (2, 3, 4)

    def test_per_row_starts_and_lengths(self):
        # Each row searches its own grid: starts far from zero make the
        # arithmetic guess round off, exact grid hits sit on ties, and
        # queries past a row's end clip to that row's length.
        rng = np.random.default_rng(4)
        fs = 1000.0
        t0 = np.array([-3.217, 0.0, 1234.5678, 7.0 / 3.0])
        n = np.array([1, 40, 900, 333])
        v = np.empty((len(t0), 300))
        for r in range(len(t0)):
            times = t0[r] + np.arange(n[r]) / fs
            v[r] = np.concatenate([
                rng.uniform(t0[r] - 0.01, t0[r] + 1.0, size=200),
                times[rng.integers(0, n[r], size=100)]])
        got = grid_searchsorted(t0[:, None], n[:, None], fs, v)
        for r in range(len(t0)):
            times = t0[r] + np.arange(n[r]) / fs
            np.testing.assert_array_equal(
                got[r], np.searchsorted(times, v[r], side="left"))

    def test_coarse_float_grid_takes_several_nudges(self):
        # Far from zero the stored times repeat (1/fs is under half an
        # ulp of t0), so a guess can sit two samples off and only the
        # nudge loop reaches the leftmost equal time.
        rng = np.random.default_rng(5)
        fs, t0, n = 2e7, 1e9, 300
        times = t0 + np.arange(n) / fs
        v = np.concatenate([times[rng.integers(0, n, size=100)],
                            rng.uniform(times[0], times[-1], size=100)])
        expected = np.searchsorted(times, v, side="left")
        guess = np.clip(np.ceil((v - t0) * fs).astype(np.intp), 0, n)
        assert np.abs(guess - expected).max() >= 2
        np.testing.assert_array_equal(grid_searchsorted(t0, n, fs, v),
                                      expected)
