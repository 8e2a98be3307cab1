"""Chaos sweeps: the fault-intensity degradation frontier."""

import pytest

from repro.engine.runner import BatchRunner
from repro.engine.spec import ScenarioSpec
from repro.faults.chaos import ChaosPoint, sweep_fault_intensity
from repro.faults.plan import FaultPlan

#: Cheap outdoor scenario (~5 ms per simulation).
FAST = ScenarioSpec(source="sun", detector="led", cap=False,
                    ground="tarmac", bits="00", symbol_width_m=0.1,
                    speed_mps=5.0, receiver_height_m=0.25,
                    start_position_m=-1.5, sample_rate_hz=2000.0)

PLAN = FaultPlan(burst_rate_hz=10.0, saturate_fraction=0.4)


def make_specs(n=4):
    return [FAST.replace(seed=k) for k in range(n)]


class TestSweep:
    def test_rung_zero_is_clean_baseline(self):
        sweep = sweep_fault_intensity(make_specs(), PLAN, [0.0, 1.0])
        clean = sweep.points[0]
        assert clean.fault_events == {}
        assert all(r.spec.get("fault_plan") is None
                   for r in clean.records)
        baseline = BatchRunner().run(make_specs())
        assert ([r.canonical_json() for r in clean.records]
                == [r.canonical_json() for r in baseline.records])

    def test_intensity_scales_event_volume(self):
        sweep = sweep_fault_intensity(make_specs(), PLAN,
                                      [0.25, 1.0])
        low, high = sweep.points
        assert (sum(high.fault_events.values())
                > sum(low.fault_events.values()))

    def test_sweep_is_deterministic(self):
        a = sweep_fault_intensity(make_specs(), PLAN, [0.0, 0.5, 1.0])
        b = sweep_fault_intensity(make_specs(), PLAN, [0.0, 0.5, 1.0])
        for pa, pb in zip(a.points, b.points):
            assert ([r.canonical_json() for r in pa.records]
                    == [r.canonical_json() for r in pb.records])

    def test_degradation_is_clean_minus_corrupted(self):
        sweep = sweep_fault_intensity(make_specs(), PLAN, [0.0, 1.0])
        assert sweep.degradation() == pytest.approx(
            sweep.points[0].decode_rate - sweep.points[-1].decode_rate)
        assert sweep.degradation() >= 0.0

    def test_render_has_one_row_per_rung(self):
        sweep = sweep_fault_intensity(make_specs(2), PLAN, [0.0, 1.0])
        text = sweep.render()
        assert text.count("\n") == 2  # header + 2 rungs
        assert "chaos frontier" in text

    def test_shared_cached_runner_reuses_records(self, tmp_path):
        from repro.engine.cache import SqliteResultCache

        runner = BatchRunner(cache=SqliteResultCache(tmp_path))
        sweep_fault_intensity(make_specs(2), PLAN, [0.0, 1.0], runner)
        before = runner.cache.stats.hits
        sweep_fault_intensity(make_specs(2), PLAN, [0.0, 1.0], runner)
        assert runner.cache.stats.hits == before + 4

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sweep_fault_intensity(make_specs(1), FaultPlan(), [1.0])

    def test_no_intensities_rejected(self):
        with pytest.raises(ValueError, match="intensity"):
            sweep_fault_intensity(make_specs(1), PLAN, [])


class TestChaosPoint:
    def test_empty_point_rates_are_zero(self):
        point = ChaosPoint(intensity=1.0, plan=PLAN)
        assert point.n == 0
        assert point.decode_rate == 0.0
        assert point.fused_rate == 0.0
        assert point.executor_errors == 0

    def test_aggregates_agree_with_batch_and_report(self):
        from repro.engine.report import fusion_stats, robustness_stats

        batch = BatchRunner().run([s.replace(fault_plan=PLAN)
                                   for s in make_specs()])
        point = ChaosPoint(intensity=1.0, plan=PLAN, records=batch.records)
        robust = robustness_stats(batch.records)
        assert point.fault_events
        assert point.fault_events == batch.stats.fault_events
        assert point.fault_events == robust["fault_events"]
        assert point.executor_errors == batch.stats.executor_errors
        assert point.executor_errors == robust["executor_errors"]
        assert point.decode_rate == batch.success_rate()
        assert point.fused_rate == fusion_stats(batch.records)["fused_rate"]


class TestStreamChunkLossStress:
    """The CI stress leg's core property, kept in-tree: the streaming
    tier survives transport-level chunk loss at any intensity — every
    session completes (decoded or failed-soft), nothing raises, and the
    loss is accounted."""

    @pytest.mark.parametrize("drop", [0.1, 0.3, 0.6])
    def test_streamed_records_survive_chunk_loss(self, drop):
        from repro.engine.executor import execute_scenario

        plan = FaultPlan(chunk_drop=drop)
        for seed in range(3):
            spec = FAST.replace(seed=seed, stream_chunk=64,
                                fault_plan=plan)
            record = execute_scenario(spec)
            assert record.streamed
            assert record.stage != "executor_error"
            assert record.fault_events.get("chunks_dropped", 0) > 0

    def test_run_stream_sessions_survive_chunk_loss(self):
        from repro.engine.streaming import run_stream

        plan = FaultPlan(chunk_drop=0.4)
        specs = [ScenarioSpec(bits="1011010010110100", seed=k,
                              fault_plan=plan) for k in range(3)]
        result = run_stream(specs, sessions=3)
        assert len(result.outcomes) == 3
        for outcome in result.outcomes:
            assert not outcome.error
            assert outcome.fault_events.get("chunks_dropped", 0) > 0

    def test_heavy_loss_degrades_decode_not_availability(self):
        """At 80% loss the decode may collapse; the runtime must not."""
        from repro.engine.streaming import run_stream

        plan = FaultPlan(chunk_drop=0.8)
        specs = [ScenarioSpec(bits="1011010010110100", seed=k,
                              fault_plan=plan) for k in range(2)]
        result = run_stream(specs, sessions=2)
        assert len(result.outcomes) == 2
        assert not result.failed_sessions


class TestStressEnvKnob:
    """REPRO_STREAM_CHUNK_LOSS: the CI stress leg's transport model —
    lossy link with retransmission.  Chunk boundaries shift, sample
    content never does, so every decode output is invariant."""

    def test_samples_preserved_under_loss(self, monkeypatch):
        import numpy as np

        from repro.stream.replay import iter_chunks

        samples = np.arange(1000, dtype=float)
        monkeypatch.setenv("REPRO_STREAM_CHUNK_LOSS", "0.4")
        chunks = list(iter_chunks(samples, 32))
        assert any(len(c) == 0 for c in chunks)       # lost slots
        assert any(len(c) > 32 for c in chunks)       # retransmissions
        np.testing.assert_array_equal(np.concatenate(chunks), samples)

    def test_lossy_feed_is_deterministic(self, monkeypatch):
        import numpy as np

        from repro.stream.replay import iter_chunks

        samples = np.arange(500, dtype=float)
        monkeypatch.setenv("REPRO_STREAM_CHUNK_LOSS", "0.3")
        a = [len(c) for c in iter_chunks(samples, 16)]
        b = [len(c) for c in iter_chunks(samples, 16)]
        assert a == b

    def test_unset_env_means_plain_chunking(self, monkeypatch):
        import numpy as np

        from repro.stream.replay import iter_chunks

        monkeypatch.delenv("REPRO_STREAM_CHUNK_LOSS", raising=False)
        chunks = list(iter_chunks(np.zeros(100), 16))
        assert [len(c) for c in chunks] == [16] * 6 + [4]

    def test_bad_env_value_rejected(self, monkeypatch):
        import numpy as np

        from repro.stream.replay import iter_chunks

        monkeypatch.setenv("REPRO_STREAM_CHUNK_LOSS", "1.5")
        with pytest.raises(ValueError, match="REPRO_STREAM_CHUNK_LOSS"):
            list(iter_chunks(np.zeros(10), 4))

    def test_verdict_invariant_under_transport_loss(self, monkeypatch):
        """The point of the stress leg, in one assertion: the decode
        verdict under a lossy transport is byte-identical to the
        clean-transport verdict."""
        from repro.engine.executor import capture_trace
        from repro.stream.replay import replay_trace

        trace = capture_trace(ScenarioSpec(bits="1011", seed=5))
        monkeypatch.delenv("REPRO_STREAM_CHUNK_LOSS", raising=False)
        clean = replay_trace(trace, 64, n_data_symbols=4)
        monkeypatch.setenv("REPRO_STREAM_CHUNK_LOSS", "0.25")
        lossy = replay_trace(trace, 64, n_data_symbols=4)
        assert (lossy.verdict.to_dict() == clean.verdict.to_dict())
        assert lossy.n_chunks >= clean.n_chunks
