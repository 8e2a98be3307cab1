"""Byte-parity and stage-key referee for the three execution drivers.

``tests/baselines/stage_parity.json`` pins the SHA-256 of
``RunRecord.canonical_json()`` for a spread of scenarios (offline,
streamed, networked, fault-injected) captured before the three
execution paths were refactored onto :mod:`repro.exec`.  Every driver
— serial, tensor, worker pool — and every instrumentation mode must
keep reproducing those exact bytes.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.engine import BatchRunner, ScenarioSpec
from repro.engine.executor import execute_scenario
from repro.exec import profiled

from tests.test_net_engine import road_spec

GOLDEN_PATH = Path(__file__).parent / "baselines" / "stage_parity.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())
ENTRIES = GOLDEN["records"]
SPECS = [ScenarioSpec.from_dict(e["spec"]) for e in ENTRIES]

#: One representative per driver family, for the slower matrix tests:
#: plain offline, networked fusion, fault-injected network, streamed.
REPRESENTATIVES = (0, 13, 16, 17)

#: Scene builds that fail inside the containment boundary: a packet too
#: long for the car roof, on one receiver and on a receiver array.
SERIAL_FAILURE = road_spec(car="volvo_v40", decoder="two_phase",
                           bits="0" * 40, seed=3)
NETWORK_FAILURE = road_spec(n_receivers=2, car="volvo_v40",
                            decoder="two_phase", bits="01100110",
                            symbol_width_m=0.4)

FULL_DECODE = {"build", "simulate", "normalize", "acquire",
               "refine_clock", "decide"}
NO_PREAMBLE = {"build", "simulate", "normalize", "acquire"}
FAULTED_NO_PREAMBLE = {"build", "simulate", "inject_faults",
                       "normalize", "acquire"}
#: A networked record times each node's decode by its own stages.
NETWORKED = {"build", "simulate", "inject_faults", "normalize", "acquire",
             "refine_clock", "decide", "fuse"}

#: Per golden spec: the stage keys and counters of one profiled serial
#: run.  A driver that skips, renames or re-enters a stage changes the
#: key set; one that re-counts a node or chunk changes the counters.
STAGE_KEYS = [
    (FULL_DECODE, {}),                            # 0  offline
    (FULL_DECODE, {}),                            # 1
    (FULL_DECODE, {}),                            # 2
    (FULL_DECODE, {}),                            # 3
    (NO_PREAMBLE, {}),                            # 4  preamble not found
    (FULL_DECODE, {}),                            # 5  two-phase car
    (FULL_DECODE, {}),                            # 6
    (FULL_DECODE, {}),                            # 7
    (FULL_DECODE, {}),                            # 8
    (FULL_DECODE, {}),                            # 9
    (FULL_DECODE, {}),                            # 10
    (FULL_DECODE, {}),                            # 11
    (FULL_DECODE, {}),                            # 12
    (NETWORKED, {"nodes_observed": 3}),           # 13 networked
    (NETWORKED, {"nodes_observed": 3}),           # 14
    (NETWORKED, {"nodes_observed": 3}),           # 15
    (NETWORKED, {"nodes_observed": 2}),           # 16 node dropped
    (FULL_DECODE, {"stream_chunks": 13}),         # 17 streamed
    (FULL_DECODE, {"stream_chunks": 813}),        # 18
    (FAULTED_NO_PREAMBLE, {"stream_chunks": 9}),  # 19 stream faults
    (FULL_DECODE, {"stream_chunks": 44}),         # 20 streamed car
    (FAULTED_NO_PREAMBLE, {}),                    # 21 signal faults
    (FULL_DECODE, {"stream_chunks": 84}),         # 22
    (FULL_DECODE, {"stream_chunks": 10}),         # 23
    (FULL_DECODE, {"stream_chunks": 102}),        # 24
    (FULL_DECODE, {"stream_chunks": 12}),         # 25
    (FULL_DECODE, {"stream_chunks": 328}),        # 26
    (FULL_DECODE, {"stream_chunks": 36}),         # 27
]


#: Per golden spec: the stage keys and counters of a profiled
#: ``execute_batch(SPECS)``.  Every single receiver runs in an optics
#: group, which times the serial stages once and counts its rows on
#: every record (specs 0-2 share one group; spec 4 never acquires);
#: the delegated receiver arrays keep their serial keys.
FUSED_STAGE_KEYS = [
    *[(FULL_DECODE, {"batch_rows": 3})] * 3,     # 0-2 one group
    (FULL_DECODE, {"batch_rows": 1}),             # 3
    (NO_PREAMBLE, {"batch_rows": 1}),             # 4  preamble not found
    (FULL_DECODE, {"batch_rows": 1}),             # 5  two-phase car
    *[(FULL_DECODE, {"batch_rows": 1})] * 7,     # 6-12
    *STAGE_KEYS[13:17],                           # 13-16 delegated arrays
    *[(keys, {**counters, "batch_rows": 1})       # 17-27 streamed and
      for keys, counters in STAGE_KEYS[17:]],     # faulted groups of one
]


def record_sha(record) -> str:
    return hashlib.sha256(record.canonical_json().encode()).hexdigest()


def expect(i: int) -> str:
    return ENTRIES[i]["sha256"]


class TestGoldenFile:
    def test_schema_and_spread(self):
        assert GOLDEN["schema"] == "repro.stage_parity/1"
        assert len(ENTRIES) == 28
        # The file must keep exercising all three execution paths.
        assert any(s.n_receivers > 1 for s in SPECS)
        assert any(s.stream_chunk > 0 for s in SPECS)
        # Streamed timing (onset / first-bit latency) is pinned at an
        # odd and a power-of-two chunk size, plain and two-phase.
        streamed = {(s.stream_chunk, s.decoder) for s in SPECS
                    if s.stream_chunk > 0 and s.n_receivers == 1}
        assert {(7, "adaptive"), (64, "adaptive"), (7, "two_phase"),
                (64, "two_phase")} <= streamed
        assert any(s.fault_plan is not None for s in SPECS)


class TestSerialParity:
    def test_every_record_byte_identical(self):
        for i, spec in enumerate(SPECS):
            record = execute_scenario(spec)
            assert record.stage == ENTRIES[i]["stage"], f"record {i}"
            assert record_sha(record) == expect(i), f"record {i}"

    def test_profiled_run_keeps_bytes(self):
        for i in REPRESENTATIVES:
            with profiled():
                record = execute_scenario(SPECS[i])
            assert record.stage_trace is not None, f"record {i}"
            assert record.stage_trace.timings_s, f"record {i}"
            # The trace rides on the record but never enters the
            # canonical bytes — profiling cannot change identities.
            assert record_sha(record) == expect(i), f"record {i}"

    def test_unprofiled_records_carry_no_trace(self):
        record = execute_scenario(SPECS[0])
        assert record.stage_trace is None


def stage_keys(record) -> tuple[set, dict]:
    return set(record.stage_trace.timings_s), record.stage_trace.counters


class TestStageKeys:
    """Each execution path times exactly its own stages, once."""

    def test_every_golden_path(self):
        assert len(STAGE_KEYS) == len(SPECS)
        with profiled():
            for i, spec in enumerate(SPECS):
                record = execute_scenario(spec)
                assert stage_keys(record) == STAGE_KEYS[i], f"record {i}"

    @pytest.mark.parametrize("spec", [SERIAL_FAILURE, NETWORK_FAILURE],
                             ids=["serial", "network"])
    def test_contained_failure_times_build_only(self, spec):
        with profiled():
            record = execute_scenario(spec)
        assert record.stage == "simulation_failed"
        assert stage_keys(record) == ({"build"}, {})

    def test_keys_survive_pool_pickling(self):
        subset = [SPECS[i] for i in REPRESENTATIVES]
        with profiled(), BatchRunner(workers=2) as runner:
            result = runner.run(subset)
        assert not result.stats.serial_fallback
        for i, record in zip(REPRESENTATIVES, result.records):
            assert stage_keys(record) == STAGE_KEYS[i], f"record {i}"


class TestTensorParity:
    def test_batch_matches_golden(self):
        from repro.tensor.batch import execute_batch

        records = execute_batch(SPECS)
        for i, record in enumerate(records):
            assert record_sha(record) == expect(i), f"record {i}"

    def test_profiled_batch_matches_golden(self):
        from repro.tensor.batch import execute_batch

        subset = [SPECS[i] for i in REPRESENTATIVES]
        with profiled():
            records = execute_batch(subset)
        for i, record in zip(REPRESENTATIVES, records):
            assert record_sha(record) == expect(i), f"record {i}"
            assert record.stage_trace is not None, f"record {i}"

    def test_profiled_batch_stage_keys(self):
        from repro.tensor.batch import execute_batch

        assert len(FUSED_STAGE_KEYS) == len(SPECS)
        with profiled():
            records = execute_batch(SPECS)
        for i, record in enumerate(records):
            assert stage_keys(record) == FUSED_STAGE_KEYS[i], f"record {i}"

    def test_pooled_groups_stay_whole(self):
        # Each optics group is one pool task, so a pooled fused batch
        # times and counts exactly what the in-process one does.
        with profiled(), BatchRunner(backend="tensor", workers=2) as runner:
            records = runner.run(SPECS).records
        for i, record in enumerate(records):
            assert stage_keys(record) == FUSED_STAGE_KEYS[i], f"record {i}"


class TestRunnerParity:
    def test_serial_runner_with_cache(self, tmp_path):
        subset = [SPECS[i] for i in REPRESENTATIVES]
        with BatchRunner(cache=tmp_path / "cache") as runner:
            cold = runner.run(subset)
            warm = runner.run(subset)
        assert warm.stats.cache_hits == len(subset)
        for i, c, w in zip(REPRESENTATIVES, cold.records, warm.records):
            assert record_sha(c) == expect(i), f"record {i}"
            assert record_sha(w) == expect(i), f"record {i}"

    def test_pool_workers_match_golden(self, tmp_path):
        subset = [SPECS[i] for i in REPRESENTATIVES]
        with BatchRunner(workers=4, cache=tmp_path / "cache") as runner:
            result = runner.run(subset)
        for i, record in zip(REPRESENTATIVES, result.records):
            assert record_sha(record) == expect(i), f"record {i}"

    def test_tensor_runner_matches_golden(self):
        subset = [SPECS[i] for i in REPRESENTATIVES]
        with BatchRunner(backend="tensor") as runner:
            result = runner.run(subset)
        for i, record in zip(REPRESENTATIVES, result.records):
            assert record_sha(record) == expect(i), f"record {i}"

    @pytest.mark.parametrize("timeout", [None, 30.0], ids=["untimed", "timed"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("backend", ["process", "tensor"])
    def test_every_dispatch_matches_golden(self, backend, workers, timeout):
        with BatchRunner(backend=backend, workers=workers,
                         scenario_timeout_s=timeout) as runner:
            result = runner.run(SPECS)
        assert not result.stats.serial_fallback
        for i, record in enumerate(result.records):
            assert record_sha(record) == expect(i), f"record {i}"


class TestOpticalKeyCallSites:
    """Satellite: the one optical-key derivation, pinned at both call
    sites against the legacy spelled-out computation."""

    def legacy_key(self, spec: ScenarioSpec) -> str:
        resolved = spec.resolve()
        if resolved.motion == "speed_jitter":
            return resolved.canonical_json()
        return resolved.replace(seed=0).canonical_json()

    def test_spec_method_matches_legacy(self):
        for spec in SPECS:
            assert spec.optical_key() == self.legacy_key(spec)

    def test_tensor_module_function_delegates(self):
        from repro.tensor.batch import optical_key

        for i in (0, 13, 17):
            assert optical_key(SPECS[i]) == SPECS[i].optical_key()

    def test_precomputed_identity_matches(self):
        spec = SPECS[0]
        assert spec.optical_key(spec.identity()) == spec.optical_key()

    def test_speed_jitter_keeps_seed(self):
        base = ScenarioSpec(motion="speed_jitter", motion_param=0.2)
        a = base.replace(seed=1)
        b = base.replace(seed=2)
        # Jitter consumes the seed inside the scene: no cross-seed
        # grouping, key equals the legacy full canonical form.
        assert a.optical_key() != b.optical_key()
        assert a.optical_key() == self.legacy_key(a)

    def test_constant_motion_groups_across_seeds(self):
        a = ScenarioSpec(seed=1)
        b = ScenarioSpec(seed=2)
        assert a.optical_key() == b.optical_key()
        assert '"seed":0' in a.optical_key()
