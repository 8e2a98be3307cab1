"""Tests for repro.stream.normalize."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.trace import SignalTrace
from repro.stream.normalize import OnlineNormalizer


class TestOnlineNormalizer:
    def test_running_extremes(self):
        norm = OnlineNormalizer()
        norm.update(np.array([3.0, 1.0]))
        norm.update(np.array([5.0]))
        assert norm.min == 1.0
        assert norm.max == 5.0
        assert norm.span == 4.0
        assert norm.count == 3

    def test_empty_state(self):
        norm = OnlineNormalizer()
        assert math.isnan(norm.min) and math.isnan(norm.max)
        assert norm.span == 0.0

    def test_non_finite_samples_excluded_not_fatal(self):
        """A glitched sample (NaN/inf) must not kill a live stream —
        it is counted but excluded from the level statistics."""
        norm = OnlineNormalizer()
        norm.update(np.array([1.0, float("nan"), 3.0, float("inf")]))
        assert norm.count == 4
        assert norm.min == 1.0
        assert norm.max == 3.0

    def test_all_non_finite_chunk_keeps_state_clean(self):
        norm = OnlineNormalizer()
        norm.update(np.array([float("nan"), float("inf")]))
        assert norm.count == 2
        assert norm.span == 0.0  # no finite extremes absorbed yet

    def test_parity_with_trace_normalized(self):
        """After the full pass arrived, normalising with the running
        extremes is bit-identical to SignalTrace.normalized()."""
        rng = np.random.default_rng(3)
        samples = rng.normal(512.0, 40.0, size=777)
        trace = SignalTrace(samples, 1000.0)
        norm = OnlineNormalizer()
        for start in range(0, len(samples), 13):
            norm.update(samples[start:start + 13])
        online = (samples - norm.min) / norm.span
        offline = trace.normalized().samples
        assert np.array_equal(online, offline)

    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                     allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=200),
           chunk=st.integers(min_value=1, max_value=50))
    def test_parity_property(self, values, chunk):
        samples = np.asarray(values, dtype=float)
        trace = SignalTrace(samples, 100.0)
        norm = OnlineNormalizer()
        for start in range(0, len(samples), chunk):
            norm.update(samples[start:start + chunk])
        # normalized() is a function of the pass's extremes alone.
        assert norm.min == float(trace.samples.min())
        assert norm.max == float(trace.samples.max())
