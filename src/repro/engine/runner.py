"""Batched scenario execution over a worker pool.

:class:`BatchRunner` is the engine's execution core.  It takes any
iterable of :class:`ScenarioSpec`, resolves them (auto fields -> concrete
values, per-scenario deterministic seeds), consults the optional result
cache, and runs the remaining scenarios as ordered tasks, in-process
or on a persistent ``concurrent.futures.ProcessPoolExecutor``.  The
cache sees one batched lookup before dispatch and one batched write
after.

Determinism contract: because every resolved spec carries its own seed
and :func:`execute_scenario` touches no shared state, ``workers=N``
produces records byte-identical (``RunRecord.canonical_json``) to
``workers=1`` for the same scenario list, in the same order.  The same
contract extends to ``backend="tensor"``: both backends run a single
receiver through the executor's one rows step, so they reproduce the
serial records byte for byte and share the result cache with them, at
any worker count.  A process task of one spec runs
:func:`execute_scenario`; a pooled process task of several runs
:func:`~repro.engine.executor.execute_scenarios`, which decodes the
task's rows as one stack; the tensor backend runs
:func:`repro.tensor.execute_batch`, one stack per optics group.

The runner is also the one producer of stage telemetry for batches:
:meth:`BatchRunner.run` folds the stage traces of the fresh records
into the active registry in the parent, so ``workers=N`` publishes
what ``workers=1`` does.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..faults.retry import RetryPolicy
from ..obs.events import active_events
from ..obs.export import publish_stage_trace
from ..obs.registry import (MetricsRegistry, active_registry, telemetry,
                            telemetry_enabled)
from .cache import SqliteResultCache
from .executor import error_record, execute_scenario, execute_scenarios
from .records import RecordStage, RunRecord
from .report import executor_error_count, fault_event_totals, success_rate
from .spec import ScenarioSpec, expand_grid

__all__ = ["RunStats", "BatchResult", "BatchRunner", "BatchAborted",
           "FAILURE_STAGES", "available_cpus", "run_grid"]

#: Most specs one pooled task carries (see :meth:`BatchRunner._tasks`).
CHUNK_MAX = 8


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS
    exposes one (a pinned process or a cgroup-limited container sees
    fewer than ``os.cpu_count()``), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: Stages counted against a ``max_failures`` fail-fast budget: the
#: scenario produced no decode outcome at all.  Legitimate decode
#: failures (``preamble_not_found``, ``decode_failed``, ``bit_errors``)
#: are *results*, not failures — a sweep exists to measure them.
FAILURE_STAGES = frozenset({RecordStage.EXECUTOR_ERROR.value,
                            RecordStage.SIMULATION_FAILED.value})


class BatchAborted(RuntimeError):
    """A batch hit its ``max_failures`` fail-fast budget and stopped.

    Attributes:
        failures: failure count when the batch stopped.
        threshold: the ``max_failures`` budget that was hit.
        result: partial :class:`BatchResult` — the cached records and
            the fresh prefix through the ``max_failures``-th failure, in
            submission order at any worker count (the rest is absent).
    """

    def __init__(self, failures: int, threshold: int,
                 result: "BatchResult") -> None:
        super().__init__(f"batch aborted after {failures} failures "
                         f"(max_failures={threshold})")
        self.failures = failures
        self.threshold = threshold
        self.result = result


class _Abort(Exception):
    """Internal fail-fast carrier: the prefix of fresh records for the
    pending specs through the failure that hit the budget."""

    def __init__(self, records: list["RunRecord"]) -> None:
        self.records = records


@dataclass
class RunStats:
    """Execution accounting for one :meth:`BatchRunner.run` call.

    Attributes:
        total: scenarios requested.
        cache_hits: scenarios answered from the cache.
        executed: scenarios actually simulated.
        workers: worker processes used (1 = in-process serial).
        elapsed_s: wall-clock time for the whole batch.
        backend: execution backend ("process" or "tensor").
        pool_restarts: worker pools torn down and recreated (after a
            ``BrokenProcessPool``, or a per-scenario timeout stall)
            during this batch.
        serial_fallback: True when the pool broke past the retry
            policy's budget and the batch finished in-process.
        executor_errors: runner-synthesized ``executor_error`` records
            in this batch (timeouts, crashed workers).
        timeouts: scenarios the per-scenario timeout gave up on.
        fault_events: injected-fault event totals across the batch's
            records, summed by kind (empty when nothing fired).
    """

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    workers: int = 1
    elapsed_s: float = 0.0
    backend: str = "process"
    pool_restarts: int = 0
    serial_fallback: bool = False
    executor_errors: int = 0
    timeouts: int = 0
    fault_events: dict[str, int] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Fraction of the batch answered from the cache."""
        return self.cache_hits / self.total if self.total else 0.0

    @property
    def throughput(self) -> float:
        """Scenarios per wall-clock second for the whole batch."""
        return self.total / self.elapsed_s if self.elapsed_s > 0.0 else 0.0

    def to_metrics(self, registry: MetricsRegistry) -> None:
        """Fold one batch's accounting into ``registry``.

        The common stats shape (see also ``FaultLog.to_metrics``,
        ``SessionStats.to_metrics``): counters
        for scenario outcomes and recovery actions, one histogram
        sample for the batch wall time.  A :class:`RunStats` describes
        exactly one :meth:`BatchRunner.run` call, so folding each
        instance once accumulates correctly across batches.
        """
        scenarios = registry.counter
        backend = {"backend": self.backend}
        scenarios("engine_scenarios_total",
                  {**backend, "outcome": "run"}).inc(self.executed)
        scenarios("engine_scenarios_total",
                  {**backend, "outcome": "cached"}).inc(self.cache_hits)
        scenarios("engine_scenarios_total",
                  {**backend, "outcome": "failed"}).inc(self.executor_errors)
        scenarios("engine_pool_restarts_total").inc(self.pool_restarts)
        scenarios("engine_timeouts_total").inc(self.timeouts)
        if self.serial_fallback:
            scenarios("engine_serial_fallbacks_total").inc()
        for kind, count in self.fault_events.items():
            scenarios("fault_injections_total", {"kind": kind}).inc(count)
        registry.histogram("engine_batch_seconds",
                           backend).observe(self.elapsed_s)

    def summary(self) -> str:
        """One-line human summary of batch performance."""
        line = (f"ran {self.total} scenarios in {self.elapsed_s:.2f}s "
                f"({self.cache_hits} cached [{self.hit_rate:.0%}], "
                f"{self.executed} simulated, {self.workers} workers, "
                f"{self.throughput:.1f} scenarios/s)")
        extras = []
        if self.timeouts:
            extras.append(f"{self.timeouts} timed out")
        if self.executor_errors:
            extras.append(f"{self.executor_errors} executor errors")
        if self.fault_events:
            extras.append(
                f"{sum(self.fault_events.values())} fault events")
        if extras:
            line += " [" + ", ".join(extras) + "]"
        return line


@dataclass
class BatchResult:
    """Ordered records + stats for one batch.

    ``records[i]`` corresponds to ``specs[i]`` of the submitted batch,
    regardless of cache hits or worker scheduling.
    """

    records: list[RunRecord] = field(default_factory=list)
    stats: RunStats = field(default_factory=RunStats)

    def success_rate(self) -> float:
        """Fraction of scenarios that decoded the exact payload."""
        return success_rate(self.records)

    def successes(self) -> list[RunRecord]:
        """Records whose payload decoded exactly."""
        return [r for r in self.records if r.success]

    def failures(self) -> list[RunRecord]:
        """Records that failed anywhere in the pipeline."""
        return [r for r in self.records if not r.success]


class BatchRunner:
    """Executes scenario batches with caching and optional parallelism.

    Every batch runs through one dispatch loop (:meth:`_execute`).  The
    worker pool is created lazily on the first pooled batch and
    **reused across** :meth:`run` calls — worker spawn cost (imports,
    interpreter start) is paid once per runner, not once per batch.
    Call :meth:`close` (or use the runner as a context manager) to tear
    the pool down deterministically; an unclosed runner tears it down
    on garbage collection as a fallback.

    Attributes:
        workers: worker processes; 1 runs everything in-process (no
            pool, no pickling, easiest to debug).
        cache: optional :class:`SqliteResultCache`, or a cache
            *directory* (str/Path) to open one in, which :meth:`close`
            closes; hits skip simulation.
        backend: what a task runs: ``"process"`` runs each spec
            through :func:`execute_scenario`, ``"tensor"`` runs
            :func:`repro.tensor.execute_batch` over the whole batch
            in-process, or over one optics group per pool task.
        retry_policy: :class:`~repro.faults.RetryPolicy` governing
            worker-pool recovery after a ``BrokenProcessPool``: one
            pool attempt per allowed attempt, backoff between them,
            then the in-process serial fallback.  The default
            (``RetryPolicy(max_attempts=2)``) replicates the classic
            behaviour: one immediate restart, then serial.
        scenario_timeout_s: per-scenario wall-clock budget, on either
            backend.  When set, tasks run as pool futures even with
            ``workers=1`` (in-process code cannot be preempted); if no
            task completes within one budget the pool is killed and
            the unfinished scenarios are retried one at a time in
            quarantine, so a single pathological spec yields one
            ``executor_error`` record instead of hanging the batch.
        max_failures: fail-fast budget.  Counting both cache hits and
            fresh records, once this many land in
            :data:`FAILURE_STAGES` the batch stops and
            :meth:`run` raises :class:`BatchAborted` carrying the
            partial result.  Legitimate decode failures never count.
    """

    BACKENDS = ("process", "tensor")

    def __init__(self, workers: int = 1,
                 cache: SqliteResultCache | str | Path | None = None,
                 backend: str = "process",
                 retry_policy: RetryPolicy | None = None,
                 scenario_timeout_s: float | None = None,
                 max_failures: int | None = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        # A store opened here from a path is this runner's to close.
        self._owns_cache = isinstance(cache, (str, Path))
        if self._owns_cache:
            cache = SqliteResultCache(cache)
        if backend not in self.BACKENDS:
            raise ValueError(
                f"backend must be one of {self.BACKENDS}, got {backend!r}")
        if scenario_timeout_s is not None and scenario_timeout_s <= 0.0:
            raise ValueError(f"scenario_timeout_s must be positive, "
                             f"got {scenario_timeout_s}")
        if max_failures is not None and max_failures < 1:
            raise ValueError(f"max_failures must be >= 1, "
                             f"got {max_failures}")
        self.workers = workers
        self.cache = cache
        self.backend = backend
        self.retry_policy = retry_policy or RetryPolicy(max_attempts=2)
        self.scenario_timeout_s = scenario_timeout_s
        self.max_failures = max_failures
        self._pool: ProcessPoolExecutor | None = None
        self._cache_closed = False
        self._pool_restarts = 0
        self._serial_fallback = False
        self._timeouts = 0
        self._failures = 0

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the persistent worker pool down and close a cache the
        runner opened from a path (idempotent).  A cache passed in as a
        store stays open: its owner closes it.  A later :meth:`run`
        reopens both."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._owns_cache and not self._cache_closed:
            self.cache.close()
            self._cache_closed = True

    def __enter__(self) -> "BatchRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass  # interpreter shutdown: the pool dies with the process

    @classmethod
    def local(cls, cache: SqliteResultCache | str | Path | None = None,
              ) -> "BatchRunner":
        """A runner with one worker per CPU this process may use."""
        return cls(workers=max(1, available_cpus()), cache=cache)

    # ------------------------------------------------------------------
    def run(self, specs: Iterable[ScenarioSpec]) -> BatchResult:
        """Execute a batch; returns records in submission order.

        Raises:
            BatchAborted: the ``max_failures`` fail-fast budget was
                exhausted; the exception carries the partial result.
        """
        started = time.perf_counter()
        if self._cache_closed:
            self.cache = SqliteResultCache(self.cache.root,
                                           self.cache.retry_policy)
            self._cache_closed = False
        self._pool_restarts = 0
        self._serial_fallback = False
        self._timeouts = 0
        self._failures = 0
        resolved = [spec.resolve() for spec in specs]
        records: list[RunRecord | None] = [None] * len(resolved)

        log = active_events()
        if log is not None:
            log.emit("batch_start", n_specs=len(resolved),
                     backend=self.backend, workers=self.workers)

        if self.cache is not None:
            keys = [spec.content_hash() for spec in resolved]
            hits = self.cache.get_many(keys)
            records = [hits.get(key) for key in keys]
        pending = [i for i, record in enumerate(records) if record is None]

        # Cached failures count against the fail-fast budget too — a
        # rerun of a known-broken grid should stop just as fast.
        aborted = any(record is not None and self._note_failure(record)
                      for record in records)

        fresh: list[RunRecord] = []
        if not aborted:
            try:
                fresh = self._execute([resolved[i] for i in pending])
            except _Abort as abort:
                fresh, aborted = abort.records, True

        done = list(zip(pending, fresh))  # a prefix after an abort
        for i, record in done:
            records[i] = record
        # Runner-synthesized records describe this run's executor, not
        # the scenario: never cache them.
        if self.cache is not None:
            self.cache.put_many(
                [record for _, record in done
                 if record.stage != RecordStage.EXECUTOR_ERROR])

        kept = [r for r in records if r is not None]
        stats = RunStats(
            total=len(resolved),
            cache_hits=len(resolved) - len(pending),
            executed=len(done),
            workers=self.workers,
            elapsed_s=time.perf_counter() - started,
            backend=self.backend,
            pool_restarts=self._pool_restarts,
            serial_fallback=self._serial_fallback,
            executor_errors=executor_error_count(kept),
            timeouts=self._timeouts,
            fault_events=fault_event_totals(kept),
        )
        registry = active_registry()
        if registry is not None:
            stats.to_metrics(registry)
            series: dict = {}
            for i, record in done:
                _publish_trace(registry, resolved[i], record, series)
        if log is not None:
            if stats.fault_events:
                log.emit("fault_injected",
                         counts=dict(sorted(stats.fault_events.items())))
            log.emit("batch_end", n_specs=stats.total,
                     cached=stats.cache_hits, executed=stats.executed,
                     failed=stats.executor_errors, aborted=aborted,
                     elapsed_s=round(stats.elapsed_s, 6))
        result = BatchResult(records=kept, stats=stats)
        if aborted:
            raise BatchAborted(self._failures, self.max_failures, result)
        return result

    def run_grid(self, template: ScenarioSpec,
                 axes: Mapping[str, Sequence]) -> BatchResult:
        """Expand a grid and run it (convenience)."""
        return self.run(expand_grid(template, axes))

    # ------------------------------------------------------------------
    def _note_failure(self, record: RunRecord) -> bool:
        """Count a record against the fail-fast budget; True = abort."""
        if record.stage in FAILURE_STAGES:
            self._failures += 1
            if (self.max_failures is not None
                    and self._failures >= self.max_failures):
                return True
        return False

    def _tasks(self, specs: Sequence[ScenarioSpec]) -> list[list[int]]:
        """Cut the pending specs into ordered tasks of spec indices.

        In-process, a process task is one spec (fail-fast stops before
        the rest run) and the tensor task is the whole batch.  On the
        pool, each tensor optics group is one task, and the other specs
        go one per task under a timeout (a chunk shares its fate) or in
        chunks of ``min(CHUNK_MAX, n // (4 * workers))`` without one:
        negligible per-task IPC, still load-balanced, and a chunk's
        rows decode as one stack.
        """
        n = len(specs)
        if self.workers == 1 and self.scenario_timeout_s is None:
            return ([list(range(n))] if self.backend == "tensor"
                    else [[i] for i in range(n)])
        fused: list[list[int]] = []
        loose = list(range(n))
        if self.backend == "tensor":
            from ..tensor import batch

            groups, idents = batch.group_specs(specs)
            fused = list(groups.values())
            loose = [i for i, ident in enumerate(idents) if ident is None]
        size = (1 if self.scenario_timeout_s is not None else
                max(1, min(CHUNK_MAX, len(loose) // (4 * self.workers))))
        chunks = [loose[k:k + size] for k in range(0, len(loose), size)]
        # By first spec index, so the finished prefix grows early.
        return sorted(fused + chunks)

    def _execute(self, specs: Sequence[ScenarioSpec]) -> list[RunRecord]:
        """Run the pending specs as ordered tasks, inline or on the pool.

        Tasks run inline at ``workers=1`` without a timeout, or when
        there is only one; otherwise as futures on the persistent pool.
        A stall (no task finishing within one scenario budget) or a
        ``BrokenProcessPool`` kills the pool.  After a stall, the tasks
        a worker may be stuck on run one spec at a time in quarantine,
        and the never-started rest goes back to a fresh pool.  A broken
        pool is recreated under the retry policy and only the
        unfinished tasks are resubmitted; past the retry budget they
        run in-process, or in quarantine under a timeout.  A task
        raising anything else would only raise again: the pool is
        dropped and the error propagates.

        Records land by spec index and fail-fast walks the finished
        prefix in spec order, so an abort keeps exactly the prefix
        through the ``max_failures``-th failure at any worker count.
        """
        if not specs:
            return []
        records: list[RunRecord | None] = [None] * len(specs)
        walked = 0

        def land(task: list[int], out: list[RunRecord]) -> None:
            nonlocal walked
            for i, record in zip(task, out):
                records[i] = record
            while walked < len(records) and records[walked] is not None:
                walked += 1
                if self._note_failure(records[walked - 1]):
                    raise _Abort(records[:walked])

        timeout = self.scenario_timeout_s
        tasks = self._tasks(specs)
        pooled = timeout is not None or (self.workers > 1 and len(tasks) > 1)
        traced = telemetry_enabled()
        policy = self.retry_policy
        attempt = 0
        while pooled and tasks:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            policy.attempts_made += 1
            stalled = False
            try:
                futures = {self._pool.submit(_run_task, self.backend,
                                             [specs[i] for i in task],
                                             traced): task
                           for task in tasks}
                pending = set(futures)
                while pending and not stalled:
                    done, pending = wait(pending, timeout=timeout,
                                         return_when=FIRST_COMPLETED)
                    stalled = not done
                    for future in done:
                        land(futures[future], future.result())
            except BrokenProcessPool:
                # A worker died (OOM kill, segfault): every spec is
                # deterministic, so its unfinished tasks simply rerun.
                pass
            finally:
                # Tasks left unfinished are stuck, lost with a dead
                # worker, or moot after an error or an abort: kill the
                # pool that still holds them.
                tasks = [task for task in tasks if records[task[0]] is None]
                if tasks:
                    _kill(self._pool)
                    self._pool = None
            if not tasks:
                return records  # type: ignore[return-value]
            if attempt == policy.max_attempts - 1 and not stalled:
                break
            self._pool_restarts += 1
            log = active_events()
            if log is not None:
                log.emit("pool_restart",
                         reason="timeout_stall" if stalled else "broken_pool",
                         attempt=attempt, leftovers=sum(map(len, tasks)))
            if stalled:
                # The pool feeds its workers in submission order, so
                # only the first ``workers`` started tasks can be stuck
                # (at least one task goes, so every round progresses).
                started = [task for future, task in futures.items()
                           if future.running()]
                for task in started[:self.workers] or tasks[:1]:
                    for i in task:
                        land([i], [self._quarantine(specs[i])])
                tasks = [task for task in tasks if records[task[0]] is None]
                continue
            policy.retries += 1
            delay = policy.delay_s(attempt)
            if delay > 0.0:
                policy.total_wait_s += delay
                time.sleep(delay)
            attempt += 1

        if timeout is not None:
            for i in sorted(i for task in tasks for i in task):
                land([i], [self._quarantine(specs[i])])
            return records  # type: ignore[return-value]
        # Pooled work left over here broke the pool past the budget.
        self._serial_fallback = pooled
        for task in tasks:
            land(task, _run_task(self.backend, [specs[i] for i in task]))
        return records  # type: ignore[return-value]

    def _quarantine(self, spec: ScenarioSpec) -> RunRecord:
        """Run one suspect scenario alone in a disposable worker."""
        timeout = self.scenario_timeout_s
        pool = ProcessPoolExecutor(max_workers=1)
        try:
            return pool.submit(_run_task, self.backend, [spec],
                               telemetry_enabled()).result(timeout=timeout)[0]
        except FuturesTimeout:
            self._timeouts += 1
            return error_record(
                spec, f"scenario timed out after {timeout:g} s "
                      f"(quarantined)")
        except BrokenProcessPool:
            return error_record(spec, "worker process died (quarantined)")
        finally:
            _kill(pool)


def _run_task(backend: str, specs: list[ScenarioSpec],
              traced: bool | None = None) -> list[RunRecord]:
    """One task's records.  Module level, so the pool pickles it by
    name; the executors are looked up at call time, so wrappers
    installed in this process see in-process calls.  A process task of
    one spec runs :func:`execute_scenario`, one of several
    :func:`~repro.engine.executor.execute_scenarios`.  Pool tasks get
    the parent's telemetry switch as ``traced``, so a persistent
    worker traces exactly when the parent folds."""
    if traced is not None and traced != telemetry_enabled():
        with telemetry(enabled=traced):
            return _run_task(backend, specs)
    if backend == "tensor":
        from ..tensor import batch

        return batch.execute_batch(specs)
    if len(specs) == 1:
        return [execute_scenario(specs[0])]
    return execute_scenarios(specs)


def _kill(pool: ProcessPoolExecutor) -> None:
    """Tear ``pool`` down *hard*: stuck workers never return, so a
    cooperative shutdown would wait forever.  The worker processes
    (a private attribute, guarded) are killed, then the executor is
    discarded without waiting."""
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            process.kill()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _publish_trace(registry: MetricsRegistry, spec: ScenarioSpec,
                   record: RunRecord, series: dict) -> None:
    """Fold one fresh record's stage trace into ``registry``, labelled
    ``network`` (a receiver array), ``tensor`` (a fused group's row,
    which adds its :attr:`~repro.exec.StageTrace.shared_by` share of
    the group's counters) or ``serial``.  ``series`` holds the batch's
    series handles (see :func:`~repro.obs.publish_stage_trace`)."""
    trace = record.stage_trace
    if trace is None:
        return
    driver = ("network" if spec.n_receivers > 1
              else "tensor" if "batch_rows" in trace.counters else "serial")
    publish_stage_trace(registry, trace, driver, shared_by=trace.shared_by,
                        series=series)


def run_grid(template: ScenarioSpec, axes: Mapping[str, Sequence],
             runner: BatchRunner | None = None) -> BatchResult:
    """One-call grid sweep with a default (serial) runner."""
    return (runner or BatchRunner()).run_grid(template, axes)
