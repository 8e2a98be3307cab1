"""BatchRunner resilience: timeouts, quarantine, fail-fast, retries."""

import pytest

from repro.engine.runner import (
    FAILURE_STAGES,
    BatchAborted,
    BatchRunner,
    RunStats,
)
from repro.engine.spec import ScenarioSpec
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy

#: Cheap outdoor scenario (~5 ms per simulation).
FAST = ScenarioSpec(source="sun", detector="led", cap=False,
                    ground="tarmac", bits="00", symbol_width_m=0.1,
                    speed_mps=5.0, receiver_height_m=0.25,
                    start_position_m=-1.5, sample_rate_hz=2000.0)

#: A spec whose execution stalls long past any test timeout.
STUCK = FAST.replace(seed=99, fault_plan=FaultPlan(exec_sleep_s=30.0))


def canon(records):
    return [r.canonical_json() for r in records]


class TestConstruction:
    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError, match="scenario_timeout_s"):
            BatchRunner(scenario_timeout_s=0.0)

    def test_bad_max_failures_rejected(self):
        with pytest.raises(ValueError, match="max_failures"):
            BatchRunner(max_failures=0)


class TestScenarioTimeout:
    def test_stuck_spec_quarantined_siblings_unharmed(self):
        """One pathological spec among healthy ones: the batch
        completes, the stuck spec becomes an executor_error record,
        and every sibling is byte-identical to a clean batch."""
        healthy = [FAST.replace(seed=k) for k in range(4)]
        specs = healthy[:2] + [STUCK] + healthy[2:]
        with BatchRunner(workers=2, scenario_timeout_s=3.0) as runner:
            result = runner.run(specs)
        assert len(result.records) == len(specs)
        stuck_record = result.records[2]
        assert stuck_record.stage == "executor_error"
        assert "timed out" in stuck_record.error
        assert result.stats.timeouts == 1
        assert result.stats.executor_errors == 1
        assert result.stats.pool_restarts >= 1

        clean = BatchRunner(workers=1).run(healthy)
        survivors = result.records[:2] + result.records[3:]
        assert canon(survivors) == canon(clean.records)

    def test_stall_quarantines_only_started_tasks(self, monkeypatch):
        """After a stall only the tasks the pool had started go to
        quarantine; the never-started rest goes back to a fresh pool
        under the same timeout, instead of one pool per spec."""
        quarantined = []
        quarantine = BatchRunner._quarantine

        def spy(runner, spec):
            quarantined.append(spec)
            return quarantine(runner, spec)

        monkeypatch.setattr(BatchRunner, "_quarantine", spy)
        healthy = [FAST.replace(seed=k) for k in range(20)]
        with BatchRunner(workers=1, scenario_timeout_s=0.2) as runner:
            result = runner.run([STUCK] + healthy)
        stages = [r.stage for r in result.records]
        assert stages.count("executor_error") == 1
        assert stages[0] == "executor_error"
        assert result.stats.timeouts == 1
        assert 1 <= len(quarantined) <= runner.workers + 1
        clean = BatchRunner(workers=1).run(healthy)
        assert canon(result.records[1:]) == canon(clean.records)

    def test_all_healthy_batch_pays_no_timeout_penalty(self):
        specs = [FAST.replace(seed=k) for k in range(3)]
        with BatchRunner(workers=2, scenario_timeout_s=30.0) as runner:
            result = runner.run(specs)
        assert result.stats.timeouts == 0
        assert canon(result.records) == canon(
            BatchRunner(workers=1).run(specs).records)

    def test_timeout_records_never_cached(self, tmp_path):
        from repro.engine.cache import SqliteResultCache

        with BatchRunner(workers=1, scenario_timeout_s=1.0,
                         cache=SqliteResultCache(tmp_path)) as runner:
            first = runner.run([STUCK])
        assert first.records[0].stage == "executor_error"
        # A second runner must re-execute (and time out again), not
        # replay the synthesized failure from the cache.
        with BatchRunner(workers=1, scenario_timeout_s=1.0,
                         cache=SqliteResultCache(tmp_path)) as runner:
            second = runner.run([STUCK])
        assert runner.cache.stats.hits == 0
        assert second.records[0].stage == "executor_error"


#: A spec whose scene build fails fast (``simulation_failed``).
BAD = FAST.replace(symbol_width_m=1e9)


def aborted(runner, specs) -> BatchAborted:
    with runner, pytest.raises(BatchAborted) as excinfo:
        runner.run(specs)
    return excinfo.value


class TestFailFast:
    def test_abort_carries_partial_result(self):
        bad = FAST.replace(symbol_width_m=1e9)  # simulation_failed
        specs = [FAST.replace(seed=1), bad.replace(seed=2),
                 bad.replace(seed=3), FAST.replace(seed=4)]
        runner = BatchRunner(max_failures=2)
        with pytest.raises(BatchAborted) as excinfo:
            runner.run(specs)
        aborted = excinfo.value
        assert aborted.failures == 2
        assert aborted.threshold == 2
        assert len(aborted.result.records) == 3  # stopped at the 2nd
        assert aborted.result.records[0].success

    def test_legitimate_decode_failures_do_not_count(self):
        # A noisy spec that fails to decode is not an executor error.
        noisy = FAST.replace(ground_lux=1.0)
        specs = [noisy.replace(seed=k) for k in range(5)]
        result = BatchRunner(max_failures=1).run(specs)
        assert len(result.records) == 5
        assert all(r.stage not in FAILURE_STAGES for r in result.records)

    def test_under_threshold_batch_completes(self):
        bad = FAST.replace(symbol_width_m=1e9)
        specs = [FAST.replace(seed=1), bad.replace(seed=2),
                 FAST.replace(seed=3)]
        result = BatchRunner(max_failures=5).run(specs)
        assert len(result.records) == 3

    def test_parallel_abort(self):
        bad = FAST.replace(symbol_width_m=1e9)
        specs = ([FAST.replace(seed=k) for k in range(3)]
                 + [bad.replace(seed=k) for k in range(3)])
        with BatchRunner(workers=2, max_failures=2) as runner:
            with pytest.raises(BatchAborted) as excinfo:
                runner.run(specs)
        serial = aborted(BatchRunner(max_failures=2), specs)
        assert excinfo.value.failures == serial.failures == 2
        assert canon(excinfo.value.result.records) == \
            canon(serial.result.records)

    @pytest.mark.parametrize("timeout", [None, 30.0], ids=["untimed", "timed"])
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("backend", ["process", "tensor"])
    def test_abort_keeps_the_serial_prefix(self, backend, workers, timeout):
        """Whatever finishes first, the partial result is the
        ``workers=1`` one: the prefix through the 2nd failure."""
        specs = [spec.replace(seed=k) for k, spec in
                 enumerate([FAST, BAD, FAST, FAST, BAD, FAST, BAD, FAST])]
        serial = aborted(BatchRunner(max_failures=2, backend=backend), specs)
        assert len(serial.result.records) == 5
        pooled = aborted(BatchRunner(workers=workers, max_failures=2,
                                     backend=backend,
                                     scenario_timeout_s=timeout), specs)
        assert pooled.failures == serial.failures == 2
        assert canon(pooled.result.records) == canon(serial.result.records)


class TestRetryPolicyIntegration:
    def test_custom_policy_attached(self):
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.0)
        runner = BatchRunner(workers=2, retry_policy=policy)
        assert runner.retry_policy is policy

    def test_default_policy_replicates_classic_restart(self):
        assert BatchRunner().retry_policy.max_attempts == 2


class TestStatsSurfacing:
    def test_fault_events_aggregated(self):
        plan = FaultPlan(burst_rate_hz=20.0)
        specs = [FAST.replace(seed=k, fault_plan=plan) for k in range(3)]
        result = BatchRunner().run(specs)
        assert result.stats.fault_events.get("noise_bursts", 0) > 0
        assert "fault events" in result.stats.summary()

    def test_clean_batch_summary_unchanged(self):
        result = BatchRunner().run([FAST.replace(seed=1)])
        summary = result.stats.summary()
        assert "fault" not in summary
        assert "timed out" not in summary
        assert "executor" not in summary

    def test_stats_fields_default_empty(self):
        stats = RunStats()
        assert stats.executor_errors == 0
        assert stats.timeouts == 0
        assert stats.fault_events == {}
