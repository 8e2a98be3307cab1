"""Tests for repro.tensor.batch — the fused cross-scenario executor.

The headline contract is byte-identity: every record out of
:func:`execute_batch` must serialize to exactly the same
``canonical_json`` as the serial :func:`execute_scenario` — across the
bench grid, every registered scenario family, and hypothesis-drawn
specs.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tensor.batch as batch_mod
from repro.channel.trace import SignalTrace
from repro.core.decoder import (
    AdaptiveThresholdDecoder,
    _first_triple,
    decode_rows,
    scan_scale,
    smoothing_scales,
)
from repro.dsp.filters import moving_average
from repro.dsp.peaks import Extremum
from repro.engine.cache import SqliteResultCache
from repro.engine.executor import execute_scenario
from repro.engine.runner import BatchRunner
from repro.engine.spec import ScenarioSpec, expand_grid
from repro.faults.plan import FaultPlan
from repro.scenarios.library import expand_family, family_names
from repro.tensor.batch import (
    clear_plan_cache,
    execute_batch,
    fast_path_eligible,
    optical_key,
)

from .reference_acquisition import (
    first_preamble_points,
    reference_acquire,
    reference_scan,
)

#: The perf suite's cheap outdoor scenario (~3 ms per serial run).
FAST = ScenarioSpec(source="sun", detector="led", cap=False,
                    ground="tarmac", bits="00", symbol_width_m=0.1,
                    speed_mps=5.0, receiver_height_m=0.25,
                    start_position_m=-1.5, sample_rate_hz=2000.0,
                    ground_lux=450.0, seed=3)


def _assert_byte_identical(specs):
    serial = [execute_scenario(s) for s in specs]
    batch = execute_batch(specs)
    assert len(batch) == len(serial)
    for ref, got in zip(serial, batch):
        assert got.canonical_json() == ref.canonical_json()


class TestFloat64ByteIdentity:
    def test_bench_grid(self):
        _assert_byte_identical(
            expand_grid(FAST, {"seed": list(range(2, 14))}))

    def test_mixed_groups_and_failures(self):
        # Low light fails to decode; the failing records must match too.
        _assert_byte_identical(
            expand_grid(FAST, {"ground_lux": [450.0, 100.0],
                               "seed": [2, 3, 4]}))

    @pytest.mark.parametrize("family", family_names())
    def test_every_registered_family(self, family):
        _assert_byte_identical(expand_family(family, count=3, seed=1))

    @given(ground_lux=st.sampled_from([120.0, 300.0, 450.0, 700.0]),
           speed=st.sampled_from([3.0, 5.0, 9.0, 14.0]),
           bits=st.sampled_from(["00", "10", "1001"]),
           seeds=st.lists(st.integers(0, 2**31 - 1), min_size=1,
                          max_size=4, unique=True))
    @settings(max_examples=12, deadline=None)
    def test_property_equivalence(self, ground_lux, speed, bits, seeds):
        template = FAST.replace(ground_lux=ground_lux, speed_mps=speed,
                                bits=bits)
        _assert_byte_identical(expand_grid(template, {"seed": seeds}))


class TestGrouping:
    def test_optical_key_drops_seed(self):
        a = FAST.replace(seed=1).resolve()
        b = FAST.replace(seed=99).resolve()
        assert optical_key(a) == optical_key(b)
        assert optical_key(a) != optical_key(
            FAST.replace(ground_lux=300.0).resolve())

    def test_speed_jitter_keeps_seed_in_key(self):
        jitter = FAST.replace(motion="speed_jitter")
        a = jitter.replace(seed=1).resolve()
        b = jitter.replace(seed=2).resolve()
        assert optical_key(a) != optical_key(b)
        # ... and those specs still decode identically to serial.
        _assert_byte_identical([a, b])

    def test_one_plan_per_optical_group(self):
        clear_plan_cache()
        execute_batch(expand_grid(FAST, {"ground_lux": [450.0, 440.0],
                                         "seed": [2, 3, 4]}))
        assert len(batch_mod._PLAN_CACHE) == 2

    def test_eligibility_gates(self):
        # Every single receiver groups, streamed, faulted and two-phase
        # ones included; only receiver arrays are delegated.
        burst = FaultPlan(burst_rate_hz=4.0)
        for spec in (FAST, FAST.replace(stream_chunk=64),
                     FAST.replace(decoder="two_phase"),
                     FAST.replace(fault_plan=burst),
                     FAST.replace(n_receivers=3),
                     FAST.replace(n_receivers=3, fault_plan=burst)):
            spec = spec.resolve()
            assert fast_path_eligible(spec) == (spec.n_receivers == 1)

    def test_ineligible_specs_delegate_and_match_serial(self):
        specs = [FAST.replace(n_receivers=3).resolve(),
                 FAST.replace(stream_chunk=64).resolve()]
        _assert_byte_identical(specs)

    def test_serial_driver_caches_no_plan(self):
        # A serial run is one row of an uncached plan: reruns of the
        # same specs must not skip their physics.
        clear_plan_cache()
        execute_scenario(FAST)
        assert not batch_mod._PLAN_CACHE

    def test_grouping_keeps_one_stall_per_stuck_spec(self, monkeypatch):
        """``exec_sleep_s`` (the chaos harness's stuck worker) stalls
        each stuck spec once when specs group, and leaves its healthy
        siblings' records as they are; the sleep is spied, so the test
        waits for nothing."""
        stalls = []
        monkeypatch.setattr(time, "sleep", stalls.append)
        stuck = FAST.replace(fault_plan=FaultPlan(exec_sleep_s=30.0))
        healthy = expand_grid(FAST, {"seed": [2, 3, 4]})
        records = execute_batch(healthy[:1]
                                + expand_grid(stuck, {"seed": [98, 99]})
                                + healthy[1:])
        assert stalls == [30.0, 30.0]
        assert [r.canonical_json() for r in records[:1] + records[3:]] == \
            [execute_scenario(s).canonical_json() for s in healthy]


@st.composite
def acquisition_traces(draw):
    """Traces that stress the shared acquisition step's edge cases.

    * ``adc``: integer codes held in runs, so extrema sit on plateaus
      and distinct extrema tie;
    * ``noise``: noise-only windows, whose smoothed span lands just
      under 4 noise sigmas (2.5-3.5 sigma at window 3), where the
      step skips the peak search;
    * ``preamble``: a blurred HLHL preamble plus data symbols and
      noise, sometimes quantised to integer codes.
    """
    kind = draw(st.sampled_from(["adc", "noise", "preamble"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "adc":
        levels = rng.integers(0, draw(st.integers(2, 8)),
                              size=draw(st.integers(2, 60)))
        raw = np.repeat(levels, rng.integers(1, 12, size=len(levels)))
    elif kind == "noise":
        raw = rng.normal(100.0, 3.0, size=draw(st.integers(8, 600)))
    else:
        symbols = "HLHL" + "".join(rng.choice(["HL", "LH"], size=3))
        width = draw(st.integers(4, 40))
        high = draw(st.floats(5.0, 200.0))
        steps = np.repeat([high if s == "H" else 0.0 for s in symbols],
                          width)
        lead = np.zeros(draw(st.integers(0, 3 * width)))
        raw = np.concatenate([lead, steps, np.zeros(width)])
        blur = np.hanning(max(3, width // 3))
        raw = np.convolve(raw, blur / blur.sum(), mode="same")
        raw = raw + rng.normal(0.0, draw(st.floats(0.0, 0.4)) * high,
                               size=len(raw))
    if kind == "adc" or draw(st.booleans()):
        raw = np.round(raw)
    return raw.astype(float)


class TestFirstTripleScan:
    @given(st.lists(st.tuples(st.booleans(),
                              st.floats(-10.0, 10.0, allow_nan=False)),
                    min_size=0, max_size=12),
           acquisition_traces(),
           st.sampled_from(["trace", "below", "at", "above"]),
           st.sampled_from([100.0, 333.0, 2000.0]),
           st.sampled_from([0.0, 1.25, -3.7]))
    @settings(max_examples=300, deadline=None)
    def test_differential_vs_first_preamble_points(self, seq, raw, gate,
                                                   fs, t0):
        """The shared array step equals the object-based reference.

        First on bare extrema sequences (the A/B/C walk alone), then on
        whole traces at every smoothing scale: the accepted triple and
        the earliest extremum handed to the stream detector.  ``gate``
        either keeps the trace's own noise sigma or puts 4 sigma a hair
        below, exactly at, or a hair above the smoothed span.  Triples
        are compared by ``repr``, so value types must match as well.
        """
        idx = np.arange(10, 10 + 3 * len(seq), 3)
        smooth = np.zeros(10 + 3 * len(seq))
        smooth[idx] = [v for _, v in seq]
        is_peak = np.array([p for p, _ in seq], dtype=bool)
        extrema = [Extremum(int(i), i / 100.0, float(smooth[i]),
                            "peak" if p else "valley")
                   for i, p in zip(idx, is_peak)]
        oracle = first_preamble_points(extrema)
        got = _first_triple(idx[is_peak].tolist(), idx[~is_peak].tolist(),
                            smooth)
        assert got == (None if oracle is None
                       else tuple(e.index for e in oracle))

        sigma = float(np.std(np.diff(raw))) / np.sqrt(2.0)
        for window in smoothing_scales(len(raw)) + [1, 2]:
            if gate != "trace":
                span = float(np.ptp(moving_average(raw, window)))
                sigma = {"below": np.nextafter(span / 4.0, 0.0),
                         "at": span / 4.0,
                         "above": np.nextafter(span / 4.0, np.inf)}[gate]
            ref_points, ref_first = reference_scan(raw, window, sigma,
                                                   fs, t0)
            scan = scan_scale(raw, window, sigma, fs, t0, 0.25,
                              want_first=True)
            assert repr(scan.points) == repr(ref_points)
            assert scan.first_index == ref_first
            lean = scan_scale(raw, window, sigma, fs, t0, 0.25)
            assert repr(lean.points) == repr(ref_points)

        trace = SignalTrace(raw, fs, t0)
        expected = reference_acquire(trace)
        scans = AdaptiveThresholdDecoder().scan_preamble(trace)
        assert repr(scans[-1].points) == repr(expected)
        rows = decode_rows(np.stack([raw, raw[::-1]]), fs, t0)
        assert repr(rows.points[0]) == repr(expected)


class TestRunnerIntegration:
    def test_tensor_backend_parity_with_process_backend(self):
        specs = expand_grid(FAST, {"seed": [2, 3, 4, 5]})
        serial = BatchRunner(workers=1).run(specs)
        tensor = BatchRunner(backend="tensor").run(specs)
        assert ([r.canonical_json() for r in tensor.records]
                == [r.canonical_json() for r in serial.records])
        assert tensor.stats.backend == "tensor"
        assert serial.stats.backend == "process"

    def test_float64_shares_cache_with_serial(self, tmp_path):
        specs = expand_grid(FAST, {"seed": [2, 3]})
        cache = SqliteResultCache(tmp_path / "cache")
        BatchRunner(backend="tensor", cache=cache).run(specs)
        # A serial runner over the same specs answers from cache.
        result = BatchRunner(workers=1, cache=cache).run(specs)
        assert result.stats.cache_hits == len(specs)

    def test_dtype_validation(self):
        with pytest.raises(ValueError):
            BatchRunner(backend="gpu")
