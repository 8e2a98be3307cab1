"""The named pipeline every execution driver runs, and its timing hooks.

The paper's pipeline is one sequence of stages — build the optical
scene, simulate the capture, inject faults, normalize, acquire the
preamble, refine the symbol clock, decide bits, fuse receivers.  This
module names the stages once (:class:`ExecStage`) and gives them a
shared instrumentation carrier (:class:`StageTrace`) with one hook,
:func:`maybe_stage`, so the drivers in :mod:`repro.engine.executor`,
:mod:`repro.tensor.batch` and :mod:`repro.stream.decode` differ only in
*how* they run the stages — per scenario, per batch row, or per pushed
chunk — never in what the stages are called.

Stage tracing has no switch of its own: telemetry implies it.
``REPRO_TELEMETRY``, :func:`repro.obs.registry.set_registry` and the
:func:`repro.obs.registry.telemetry` scope decide whether
:func:`new_trace` hands out traces; when they are off every hook
degrades to a shared no-op context manager, so the hot paths pay a
single ``None`` check.  :func:`profiled` and :func:`collect_traces` are
thin scopes over that switch.  The drivers only fill traces in: the
batch runner folds the records' traces into the registry, in the
parent process.  This module imports only the stdlib and
:mod:`repro.obs.registry`, so any layer may import it without cycles.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterator

from ..obs.registry import telemetry, telemetry_enabled

__all__ = [
    "ExecStage", "PIPELINE_STAGES", "StageTrace", "collect_traces",
    "maybe_stage", "new_trace", "profiled",
]


class ExecStage(str, Enum):
    """The canonical pipeline stages, in execution order.

    A ``str`` subclass so stage names serialize and compare as the
    plain strings drivers always used (``"build"`` ... ``"fuse"``).
    """

    BUILD = "build"
    SIMULATE = "simulate"
    INJECT_FAULTS = "inject_faults"
    NORMALIZE = "normalize"
    ACQUIRE = "acquire"
    REFINE_CLOCK = "refine_clock"
    DECIDE = "decide"
    FUSE = "fuse"

    # str.__str__/__format__ keep f-strings and %-formatting on the
    # bare value ("build", not "ExecStage.BUILD") on Python < 3.12.
    __str__ = str.__str__
    __format__ = str.__format__


#: Execution order, as plain strings (report tables key on these).
PIPELINE_STAGES: tuple[str, ...] = tuple(s.value for s in ExecStage)

_STAGE_INDEX = {name: i for i, name in enumerate(PIPELINE_STAGES)}


_COLLECTOR: "list[StageTrace] | None" = None


def new_trace() -> "StageTrace | None":
    """A fresh :class:`StageTrace` when telemetry is on, else None.

    Inside a :func:`collect_traces` scope the trace is also appended
    to the active collector, so callers that drive opaque entry points
    (the perf suite timing a closure) can still aggregate stages.
    """
    if not telemetry_enabled():
        return None
    trace = StageTrace()
    if _COLLECTOR is not None:
        _COLLECTOR.append(trace)
    return trace


@contextlib.contextmanager
def collect_traces() -> "Iterator[list[StageTrace]]":
    """Collect every trace :func:`new_trace` hands out in this scope.

    Single-process only — traces created in forked workers stay in
    their worker.  Scopes nest; each sees only its own traces.
    """
    global _COLLECTOR
    prev, bucket = _COLLECTOR, []
    _COLLECTOR = bucket
    try:
        yield bucket
    finally:
        _COLLECTOR = prev


@contextlib.contextmanager
def profiled(enabled: bool = True) -> Iterator[None]:
    """Scoped stage tracing, restoring the prior state on exit.

    A thin wrapper over the telemetry switch: tracing on keeps an
    active registry (or opens a fresh one), tracing off turns
    telemetry off for the block.
    """
    if enabled and telemetry_enabled():
        yield
        return
    with telemetry(enabled=enabled):
        yield


@dataclass
class StageTrace:
    """Per-stage wall time and counters accumulated during one run.

    Attributes:
        timings_s: stage name -> accumulated wall seconds.
        counters: free-form event counts (chunks pushed, batch rows,
            nodes observed, ...).
    """

    timings_s: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    def add(self, stage: str, seconds: float) -> None:
        """Accumulate wall time against one stage."""
        name = str(stage)
        self.timings_s[name] = self.timings_s.get(name, 0.0) + seconds

    def count(self, name: str, n: int = 1) -> None:
        """Bump a named counter."""
        key = str(name)
        self.counters[key] = self.counters.get(key, 0) + n

    @contextlib.contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a ``with`` block against one stage."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - started)

    def merge(self, other: "StageTrace | None") -> "StageTrace":
        """Fold another trace's timings and counters into this one."""
        if other is not None:
            for name, seconds in other.timings_s.items():
                self.add(name, seconds)
            for name, n in other.counters.items():
                self.count(name, n)
        return self

    def scaled(self, factor: float) -> "StageTrace":
        """A copy with timings scaled (counters kept verbatim).

        The tensor driver times whole-batch stages once, then
        attributes ``1/n`` of each stage to every record in the group.
        """
        return StageTrace(
            timings_s={k: v * factor for k, v in self.timings_s.items()},
            counters=dict(self.counters))

    @property
    def shared_by(self) -> int:
        """How many records carry these counters: a fused row carries
        its group's counters, ``batch_rows`` of them; any other trace
        is its one record's own.  Whoever totals counters over records
        adds ``value / shared_by`` per record, which counts each group
        once."""
        return max(1, self.counters.get("batch_rows", 0))

    @property
    def total_s(self) -> float:
        return sum(self.timings_s.values())

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe payload (stable stage ordering)."""
        def order(name: str) -> tuple[int, str]:
            return (_STAGE_INDEX.get(name, len(_STAGE_INDEX)), name)

        payload: dict[str, Any] = {
            "timings_s": {k: self.timings_s[k]
                          for k in sorted(self.timings_s, key=order)},
        }
        if self.counters:
            payload["counters"] = {k: self.counters[k]
                                   for k in sorted(self.counters)}
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "StageTrace":
        return cls(
            timings_s={str(k): float(v)
                       for k, v in data.get("timings_s", {}).items()},
            counters={str(k): int(v)
                      for k, v in data.get("counters", {}).items()})


_NULL_CONTEXT = contextlib.nullcontext()


def maybe_stage(trace: StageTrace | None, name: str):
    """``trace.stage(name)`` when tracing, else a shared no-op.

    The single instrumentation hook hot loops call: one ``None``
    check when telemetry is off.
    """
    return _NULL_CONTEXT if trace is None else trace.stage(name)
