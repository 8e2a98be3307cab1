"""Engine-level fault injection: determinism and no-fault parity.

The two halves of the fault plane's contract, property-tested:

* a ``fault_plan`` run is byte-identical across worker counts and
  cache states (faults are part of the spec's content hash), and
* an empty/absent plan leaves every output byte-identical to a run of
  the pre-fault engine (no perturbation of the noise draw, the spec
  hash, or the record layout).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.executor import error_record, execute_scenario
from repro.engine.runner import BatchRunner
from repro.engine.spec import ScenarioSpec
from repro.faults.plan import FaultPlan

#: Cheap outdoor scenario (~5 ms per simulation), as in the runner tests.
FAST = ScenarioSpec(source="sun", detector="led", cap=False,
                    ground="tarmac", bits="00", symbol_width_m=0.1,
                    speed_mps=5.0, receiver_height_m=0.25,
                    start_position_m=-1.5, sample_rate_hz=2000.0)

#: A fault mix touching every injection layer the FAST spec exercises.
plans = st.builds(
    FaultPlan,
    chunk_drop=st.floats(0.0, 0.4),
    chunk_duplicate=st.floats(0.0, 0.3),
    burst_rate_hz=st.floats(0.0, 20.0),
    dropout_rate_hz=st.floats(0.0, 10.0),
    saturate_fraction=st.floats(0.0, 0.5),
    clock_drift_ppm=st.floats(-2000.0, 2000.0),
)

slow_settings = settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


def canon(records):
    return [r.canonical_json() for r in records]


class TestSpecWiring:
    def test_plan_in_content_hash_not_in_derived_seed(self):
        clean = FAST.replace(seed=3)
        faulted = clean.replace(fault_plan=FaultPlan(chunk_drop=0.2))
        assert faulted.content_hash() != clean.content_hash()
        assert faulted.derived_seed() == clean.derived_seed()

    def test_mapping_coerced_on_construction(self):
        spec = FAST.replace(fault_plan={"chunk_drop": 0.2})
        assert isinstance(spec.fault_plan, FaultPlan)
        assert spec.fault_plan.chunk_drop == pytest.approx(0.2)

    def test_bad_plan_type_rejected(self):
        with pytest.raises(ValueError, match="fault_plan"):
            FAST.replace(fault_plan="chunk_drop=0.2")

    def test_empty_plan_normalized_to_none(self):
        spec = FAST.replace(fault_plan=FaultPlan())
        assert spec.fault_plan is None
        assert spec.content_hash() == FAST.content_hash()

    def test_to_dict_omits_absent_plan(self):
        assert "fault_plan" not in FAST.to_dict()
        spec = FAST.replace(fault_plan=FaultPlan(chunk_drop=0.2))
        assert spec.to_dict()["fault_plan"]["chunk_drop"] == 0.2

    def test_round_trip_through_dict(self):
        spec = FAST.replace(seed=5, fault_plan=FaultPlan(chunk_drop=0.2))
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.content_hash() == spec.content_hash()


class TestFaultedDeterminism:
    @slow_settings
    @given(plan=plans, seed=st.integers(0, 50))
    def test_workers_1_vs_4_byte_identical(self, plan, seed):
        specs = [FAST.replace(seed=seed + k, fault_plan=plan)
                 for k in range(4)]
        serial = BatchRunner(workers=1).run(specs)
        with BatchRunner(workers=4) as runner:
            parallel = runner.run(specs)
        assert canon(serial.records) == canon(parallel.records)

    @slow_settings
    @given(plan=plans, seed=st.integers(0, 50))
    def test_cache_cold_vs_warm_byte_identical(self, plan, seed):
        import tempfile

        from repro.engine.cache import SqliteResultCache

        specs = [FAST.replace(seed=seed + k, fault_plan=plan)
                 for k in range(3)]
        with tempfile.TemporaryDirectory() as root:
            cold = BatchRunner(cache=SqliteResultCache(root)).run(specs)
            warm_runner = BatchRunner(cache=SqliteResultCache(root))
            warm = warm_runner.run(specs)
            assert warm_runner.cache.stats.hits == len(specs)
        assert canon(cold.records) == canon(warm.records)

    def test_rerun_byte_identical(self):
        plan = FaultPlan(chunk_drop=0.25, burst_rate_hz=8.0,
                         saturate_fraction=0.3)
        spec = FAST.replace(seed=11, fault_plan=plan)
        assert (execute_scenario(spec).canonical_json()
                == execute_scenario(spec).canonical_json())

    def test_faults_counted_on_record(self):
        plan = FaultPlan(burst_rate_hz=20.0, dropout_rate_hz=10.0)
        record = execute_scenario(FAST.replace(seed=11, fault_plan=plan))
        assert record.faulted
        assert record.fault_events.get("noise_bursts", 0) > 0

    def test_streamed_chunk_faults_counted(self):
        plan = FaultPlan(chunk_drop=0.3)
        record = execute_scenario(
            FAST.replace(seed=11, stream_chunk=64, fault_plan=plan))
        assert record.fault_events.get("chunks_dropped", 0) > 0

    def test_networked_node_faults_counted(self):
        plan = FaultPlan(node_dropout=0.6)
        record = execute_scenario(
            FAST.replace(seed=11, n_receivers=4, fault_plan=plan))
        assert record.fault_events.get("nodes_dropped", 0) > 0
        assert record.networked


class TestStreamFaultParity:
    """A streamed spec's faults take one path, offline
    (``execute_scenario``) and live (``run_stream``)."""

    def test_offline_and_live_sessions_agree(self):
        from repro.engine.streaming import run_stream
        from repro.obs import telemetry_session

        plan = FaultPlan(chunk_drop=0.2, burst_rate_hz=5.0)
        specs = [FAST.replace(seed=seed, stream_chunk=64, fault_plan=plan)
                 for seed in (2, 3, 4)]
        with telemetry_session() as (registry, _events):
            outcomes = run_stream(specs, sessions=3, chunk_size=64).outcomes
        totals: dict[str, int] = {}
        for spec, outcome in zip(specs, outcomes):
            record = execute_scenario(spec)
            assert record.fault_events.get("chunks_dropped", 0) > 0
            assert outcome.fault_events == record.fault_events
            assert outcome.verdict_bits == record.decoded_bits
            assert outcome.onset_latency_s == record.onset_latency_s
            assert outcome.first_bit_latency_s == record.first_bit_latency_s
            assert outcome.verdict_latency_s == record.verdict_latency_s
            for kind, count in record.fault_events.items():
                totals[kind] = totals.get(kind, 0) + count
        published = {s["labels"]["kind"]: s["value"]
                     for s in registry.snapshot()["counters"]
                     if s["name"] == "fault_injections_total"}
        assert published == totals


class TestEmptyPlanParity:
    """No plan, an empty plan, and the pre-fault engine all agree."""

    @slow_settings
    @given(seed=st.integers(0, 100))
    def test_empty_plan_byte_identical_to_none(self, seed):
        base = FAST.replace(seed=seed)
        empty = base.replace(fault_plan=FaultPlan())
        rec_none = execute_scenario(base)
        rec_empty = execute_scenario(empty)
        assert rec_empty.fault_events == {}
        assert rec_none.canonical_json() == rec_empty.canonical_json()

    def test_absent_plan_record_layout_unchanged(self):
        record = execute_scenario(FAST.replace(seed=3))
        data = record.to_dict()
        assert "fault_events" not in data
        assert "fault_plan" not in data["spec"]

    @slow_settings
    @given(seed=st.integers(0, 100))
    def test_tensor_parity_unchanged(self, seed):
        specs = [FAST.replace(seed=seed + k) for k in range(3)]
        serial = BatchRunner(workers=1).run(specs)
        tensor = BatchRunner(backend="tensor").run(specs)
        assert canon(serial.records) == canon(tensor.records)

    def test_tensor_delegates_faulted_specs_to_serial(self):
        plan = FaultPlan(burst_rate_hz=8.0)
        specs = [FAST.replace(seed=7, fault_plan=plan),
                 FAST.replace(seed=8)]
        tensor = BatchRunner(backend="tensor").run(specs)
        serial = BatchRunner(workers=1).run(specs)
        assert canon(tensor.records) == canon(serial.records)


class TestErrorRecord:
    def test_synthesized_record_shape(self):
        record = error_record(FAST.replace(seed=3), "worker vanished",
                              elapsed_s=1.5)
        assert record.stage == "executor_error"
        assert not record.success
        assert record.ber == 1.0
        assert record.error == "worker vanished"
        assert record.elapsed_s == pytest.approx(1.5)

    def test_spec_hash_matches_normal_execution(self):
        spec = FAST.replace(seed=3)
        assert (error_record(spec, "x").spec_hash
                == execute_scenario(spec).spec_hash)
