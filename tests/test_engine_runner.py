"""Tests for repro.engine.runner — batching, parallelism, caching.

The determinism and cache contracts here are the engine's acceptance
criteria: ``workers=N`` must be byte-identical to ``workers=1``, and a
repeated sweep must answer entirely from the cache without invoking the
simulator once.
"""

import os
import subprocess
import sys
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import repro.engine.runner as runner_mod
from repro.engine import (
    BatchRunner,
    ScenarioSpec,
    SqliteResultCache,
    execute_scenario,
    expand_grid,
    run_grid,
    success_rate_by,
)
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.obs.events import event_scope

#: A cheap, fast outdoor scenario (~5 ms per simulation).
FAST = ScenarioSpec(source="sun", detector="led", cap=False,
                    ground="tarmac", bits="00", symbol_width_m=0.1,
                    speed_mps=5.0, receiver_height_m=0.25,
                    start_position_m=-1.5, sample_rate_hz=2000.0)

GRID = {"ground_lux": [450.0, 100.0], "seed": [2, 3, 4]}


class TestExecution:
    def test_single_record_fields(self):
        record = execute_scenario(FAST.replace(ground_lux=450.0, seed=3))
        assert record.sent_bits == "00"
        assert record.success and record.stage == "decoded"
        assert record.ber == 0.0
        assert record.sample_rate_hz == 2000.0
        assert record.noise_floor_lux == pytest.approx(450.0)
        assert record.n_samples > 0
        assert record.spec_hash == FAST.replace(
            ground_lux=450.0, seed=3).content_hash()

    def test_simulation_failure_contained(self):
        """A bad grid point (tag too long for the car roof) yields a
        simulation_failed record instead of aborting the batch."""
        bad = FAST.replace(car="volvo_v40", decoder="two_phase",
                           bits="0" * 40, seed=3)
        result = BatchRunner().run([bad, FAST.replace(ground_lux=450.0,
                                                      seed=3)])
        failed, ok = result.records
        assert failed.stage == "simulation_failed"
        assert not failed.success and failed.ber == 1.0
        assert failed.n_samples == 0
        assert "roof" in failed.error
        assert ok.success

    def test_failure_stage_recorded(self):
        record = execute_scenario(FAST.replace(ground_lux=100.0, seed=3))
        assert not record.success
        assert record.stage in ("preamble_not_found", "decode_failed",
                                "bit_errors")
        assert record.ber > 0.0

    def test_order_preserved(self):
        specs = expand_grid(FAST, GRID)
        records = BatchRunner().run(specs).records
        assert [r.spec for r in records] == [s.resolve().to_dict()
                                             for s in specs]

    def test_run_grid_convenience(self):
        result = run_grid(FAST, {"seed": [2, 3]})
        assert result.stats.total == 2
        assert success_rate_by(result.records, "seed").keys() == {2, 3}


class TestDeterminism:
    def test_parallel_byte_identical_to_serial(self):
        specs = expand_grid(FAST, GRID)
        serial = BatchRunner(workers=1).run(specs)
        parallel = BatchRunner(workers=3).run(specs)
        assert serial.stats.workers == 1 and parallel.stats.workers == 3
        assert ([r.canonical_json() for r in serial.records]
                == [r.canonical_json() for r in parallel.records])

    def test_rerun_byte_identical(self):
        specs = expand_grid(FAST, {"seed": [2, 3]})
        first = BatchRunner().run(specs).records
        second = BatchRunner().run(specs).records
        assert ([r.canonical_json() for r in first]
                == [r.canonical_json() for r in second])


class TestCaching:
    def test_second_pass_hits_cache_for_every_scenario(self, tmp_path):
        specs = expand_grid(FAST, GRID)
        cache = SqliteResultCache(tmp_path)
        first = BatchRunner(cache=cache).run(specs)
        assert first.stats.executed == len(specs)
        assert first.stats.cache_hits == 0
        second = BatchRunner(cache=cache).run(specs)
        assert second.stats.executed == 0
        assert second.stats.cache_hits == len(specs)
        assert ([r.canonical_json() for r in first.records]
                == [r.canonical_json() for r in second.records])

    def test_zero_simulator_invocations_on_second_pass(self, tmp_path,
                                                       monkeypatch):
        specs = expand_grid(FAST, {"seed": [2, 3]})
        cache = SqliteResultCache(tmp_path)
        BatchRunner(cache=cache).run(specs)

        def explode(spec):
            raise AssertionError(
                "simulator invoked despite a warm cache")

        monkeypatch.setattr(runner_mod, "execute_scenario", explode)
        result = BatchRunner(cache=cache).run(specs)
        assert result.stats.executed == 0
        assert all(r.success for r in result.records)

    def test_spec_change_invalidates(self, tmp_path):
        cache = SqliteResultCache(tmp_path)
        BatchRunner(cache=cache).run([FAST.replace(seed=2)])
        result = BatchRunner(cache=cache).run(
            [FAST.replace(seed=2, receiver_height_m=0.26)])
        assert result.stats.executed == 1
        assert result.stats.cache_hits == 0

    def test_shared_cache_across_worker_counts(self, tmp_path):
        specs = expand_grid(FAST, GRID)
        cache = SqliteResultCache(tmp_path)
        BatchRunner(workers=3, cache=cache).run(specs)
        second = BatchRunner(workers=1, cache=cache).run(specs)
        assert second.stats.executed == 0


class TestStatsAndHelpers:
    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BatchRunner(workers=0)

    def test_empty_batch(self):
        result = BatchRunner().run([])
        assert result.records == []
        assert result.stats.total == 0
        assert result.success_rate() == 0.0

    def test_success_partition(self):
        result = BatchRunner().run(expand_grid(FAST, GRID))
        assert (len(result.successes()) + len(result.failures())
                == len(result.records))
        # 450 lux decodes, 100 lux does not (the Fig. 15 cliff).
        rates = success_rate_by(result.records, "ground_lux")
        assert rates[450.0] > rates[100.0]


class TestPersistentPool:
    """The worker pool outlives a single run() call (PR 3 perf work)."""

    def test_pool_reused_across_runs(self):
        specs_a = expand_grid(FAST, {"seed": [2, 3, 4, 5]})
        specs_b = expand_grid(FAST, {"seed": [6, 7, 8, 9]})
        with BatchRunner(workers=2) as runner:
            runner.run(specs_a)
            pool = runner._pool
            assert pool is not None
            runner.run(specs_b)
            assert runner._pool is pool

    def test_two_consecutive_parallel_runs_byte_identical_to_serial(self):
        """workers=4 records stay byte-identical to workers=1 across two
        consecutive run() calls on the same runner."""
        specs_a = expand_grid(FAST, GRID)
        specs_b = expand_grid(FAST, {"ground_lux": [450.0],
                                     "seed": [5, 6, 7, 8]})
        serial = BatchRunner(workers=1)
        with BatchRunner(workers=4) as parallel:
            for specs in (specs_a, specs_b):
                expected = [r.canonical_json()
                            for r in serial.run(specs).records]
                got = [r.canonical_json()
                       for r in parallel.run(specs).records]
                assert got == expected

    def test_close_tears_pool_down(self):
        runner = BatchRunner(workers=2)
        runner.run(expand_grid(FAST, {"seed": [2, 3]}))
        assert runner._pool is not None
        processes = list(runner._pool._processes.values())
        runner.close()
        assert runner._pool is None
        for proc in processes:
            proc.join(timeout=10)
            assert not proc.is_alive()
        runner.close()  # idempotent

    def test_context_manager_tears_pool_down(self):
        with BatchRunner(workers=2) as runner:
            runner.run(expand_grid(FAST, {"seed": [2, 3]}))
            assert runner._pool is not None
        assert runner._pool is None

    def test_run_after_close_recreates_pool(self):
        runner = BatchRunner(workers=2)
        specs = expand_grid(FAST, {"seed": [2, 3]})
        first = runner.run(specs).records
        runner.close()
        second = runner.run(specs).records
        assert ([r.canonical_json() for r in first]
                == [r.canonical_json() for r in second])
        runner.close()

    def test_serial_runner_never_opens_a_pool(self):
        runner = BatchRunner(workers=1)
        runner.run(expand_grid(FAST, {"seed": [2, 3]}))
        assert runner._pool is None


class TestRunStatsReporting:
    def test_hit_rate_and_throughput(self):
        stats = runner_mod.RunStats(total=10, cache_hits=4, executed=6,
                                    workers=2, elapsed_s=2.0)
        assert stats.hit_rate == pytest.approx(0.4)
        assert stats.throughput == pytest.approx(5.0)
        line = stats.summary()
        assert "4 cached [40%]" in line
        assert "6 simulated" in line
        assert "5.0 scenarios/s" in line

    def test_empty_stats_do_not_divide_by_zero(self):
        stats = runner_mod.RunStats()
        assert stats.hit_rate == 0.0
        assert stats.throughput == 0.0
        assert "0 scenarios" in stats.summary()


class TestBrokenPoolRecovery:
    """A BrokenProcessPool or a stall mid-batch must not lose the batch.

    The runner's contract: tear the dead pool down, recreate it once,
    and if the replacement breaks too, finish the batch in-process (in
    quarantine under a timeout).  A stalled pool sends its unfinished
    specs to quarantine.  Other exceptions propagate, with or without a
    timeout.
    """

    #: A spec whose task never finishes on the fake pool.
    STUCK = FAST.replace(seed=99, fault_plan=FaultPlan(exec_sleep_s=30.0))

    class _FakePool:
        """Stands in for ProcessPoolExecutor; breaks on command.

        Tasks run at submit time, in-process.  A task holding a spec
        with an ``exec_sleep_s`` stall gets a running future that
        never resolves: a stuck worker, without the sleep.
        """

        instances: list = []

        def __init__(self, max_workers=None):
            self.broken = False
            self.shutdowns = 0
            TestBrokenPoolRecovery._FakePool.instances.append(self)

        def submit(self, fn, *args):
            future = Future()
            specs = args[1]
            if self.broken:
                future.set_exception(BrokenProcessPool("worker died"))
            elif not any(s.fault_plan is not None
                         and s.fault_plan.exec_sleep_s > 0 for s in specs):
                try:
                    future.set_result(fn(*args))
                except Exception as exc:
                    future.set_exception(exc)
            else:
                future.set_running_or_notify_cancel()
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            self.shutdowns += 1

    @pytest.fixture
    def fake_pools(self, monkeypatch):
        self._FakePool.instances = []
        monkeypatch.setattr(runner_mod, "ProcessPoolExecutor",
                            self._FakePool)
        return self._FakePool.instances

    def _specs(self):
        return expand_grid(FAST, {"seed": [2, 3]})

    def test_single_break_restarts_pool_and_retries(self, fake_pools):
        runner = BatchRunner(workers=2)
        serial = [r.canonical_json()
                  for r in BatchRunner(workers=1).run(self._specs()).records]
        first = runner.run(self._specs())          # healthy pool
        assert len(fake_pools) == 1
        fake_pools[0].broken = True                # kill it mid-flight
        result = runner.run(self._specs())
        assert [r.canonical_json() for r in result.records] == serial
        assert len(fake_pools) == 2                # replacement created
        assert fake_pools[0].shutdowns == 1
        assert result.stats.pool_restarts == 1
        assert not result.stats.serial_fallback
        assert first.stats.pool_restarts == 0

    def test_double_break_falls_back_to_serial(self, fake_pools):
        serial = [r.canonical_json()
                  for r in BatchRunner(workers=1).run(self._specs()).records]
        runner = BatchRunner(workers=2)
        runner.run(self._specs())
        for pool in fake_pools:
            pool.broken = True
        # Any pool created from now on is born broken.
        orig_init = self._FakePool.__init__

        def broken_init(pool, max_workers=None):
            orig_init(pool, max_workers)
            pool.broken = True

        self._FakePool.__init__ = broken_init
        try:
            result = runner.run(self._specs())
        finally:
            self._FakePool.__init__ = orig_init
        assert [r.canonical_json() for r in result.records] == serial
        assert result.stats.pool_restarts == 1
        assert result.stats.serial_fallback
        assert runner._pool is None                # nothing left behind

    def test_other_exceptions_still_propagate(self, fake_pools):
        runner = BatchRunner(workers=2)
        runner.run(self._specs())

        def exploding_submit(fn, *args):
            raise RuntimeError("unpicklable spec")

        fake_pools[0].submit = exploding_submit
        with pytest.raises(RuntimeError, match="unpicklable"):
            runner.run(self._specs())
        assert runner._pool is None                # pool dropped

    def test_stats_reset_between_runs(self, fake_pools):
        runner = BatchRunner(workers=2)
        runner.run(self._specs())
        fake_pools[0].broken = True
        assert runner.run(self._specs()).stats.pool_restarts == 1
        # The replacement pool is healthy: counters start clean.
        stats = runner.run(self._specs()).stats
        assert stats.pool_restarts == 0
        assert not stats.serial_fallback

    def test_raising_task_propagates_under_timeout(self, fake_pools,
                                                   monkeypatch):
        def explode(spec):
            raise RuntimeError("executor bug")

        monkeypatch.setattr(runner_mod, "execute_scenario", explode)
        runner = BatchRunner(workers=2, scenario_timeout_s=0.1)
        with pytest.raises(RuntimeError, match="executor bug"):
            runner.run(self._specs())
        assert runner._pool is None                # pool dropped

    def test_stall_quarantines_only_the_stuck_spec(self, fake_pools):
        healthy = self._specs()
        runner = BatchRunner(workers=2, scenario_timeout_s=0.05)
        result = runner.run([healthy[0], self.STUCK, healthy[1]])
        stuck = result.records[1]
        assert stuck.stage == "executor_error"
        assert "timed out" in stuck.error
        assert result.stats.timeouts == 1
        assert result.stats.executor_errors == 1
        assert result.stats.pool_restarts == 1
        assert not result.stats.serial_fallback
        clean = BatchRunner(workers=1).run(healthy).records
        assert [r.canonical_json() for r in result.records[::2]] == \
            [r.canonical_json() for r in clean]

    def test_broken_pool_under_timeout_follows_retry_policy(self,
                                                            fake_pools):
        serial = [r.canonical_json()
                  for r in BatchRunner(workers=1).run(self._specs()).records]
        policy = RetryPolicy(max_attempts=2)
        runner = BatchRunner(workers=2, scenario_timeout_s=0.1,
                             retry_policy=policy)
        runner.run(self._specs())
        fake_pools[0].broken = True
        with event_scope() as log:
            result = runner.run(self._specs())
        assert [r.canonical_json() for r in result.records] == serial
        restarts = [e.fields["reason"] for e in log.events
                    if e.kind == "pool_restart"]
        assert restarts == ["broken_pool"]
        assert policy.retries == 1
        assert result.stats.pool_restarts == 1
        assert result.stats.timeouts == 0
        assert len(fake_pools) == 2                # recreated, no quarantine

    def test_tensor_timeout_quarantines_delegated_spec(self, fake_pools):
        """The fused backend takes a timeout: optics groups and the
        delegated specs run as pool tasks, and the one stuck (faulted,
        so delegated) spec is the batch's only executor_error."""
        healthy = [FAST.replace(seed=k) for k in range(4)]
        specs = healthy[:2] + [self.STUCK] + healthy[2:]
        runner = BatchRunner(backend="tensor", workers=2,
                             scenario_timeout_s=0.05)
        result = runner.run(specs)
        stages = [r.stage for r in result.records]
        assert stages.count("executor_error") == 1
        assert stages[2] == "executor_error"
        assert result.stats.timeouts == 1
        clean = BatchRunner(workers=1).run(healthy).records
        survivors = result.records[:2] + result.records[3:]
        assert [r.canonical_json() for r in survivors] == \
            [r.canonical_json() for r in clean]


class TestCpuAffinity:
    """Worker counts follow the CPUs a process may use, not the box."""

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity API on this platform")
    def test_pinned_process_sizes_to_one_cpu(self):
        cpu = min(os.sched_getaffinity(0))
        code = (f"import os; os.sched_setaffinity(0, {{{cpu}}})\n"
                "from repro.engine.runner import BatchRunner\n"
                "print(BatchRunner.local().workers)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        assert out.stdout.split() == ["1"]
