"""Cross-scenario batched execution: N captures as one (N x T) stack.

:func:`execute_batch` groups resolved specs by their *optical key*
(the resolved spec minus the noise seed) and runs each group through
the executor's rows step: the group shares one cached
:class:`~repro.engine.executor.CapturePlan` (footprint kernel, pass
geometry, aperture illuminance, the front end's ``respond``), one
``digitize`` over its noise rows and, when plain adaptive, one
:func:`~repro.core.decoder.decode_rows`.  The serial driver runs the
same step as a batch of one, so every record is **byte-identical**
(``canonical_json``) to :func:`repro.engine.execute_scenario`'s.

This module holds only the grouping (:func:`group_specs`, which also
cuts the batch runner's pool tasks), the plan cache, the ``batch_rows``
count and :func:`execute_batch`.  Receiver arrays, and any group whose
plan or capture raises, are delegated to ``execute_scenario``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from ..engine.executor import (
    CapturePlan,
    capture_plan,
    decode_captures,
    execute_scenario,
)
from ..engine.records import RunRecord
from ..engine.spec import ScenarioSpec, SpecIdentity
from ..exec.graph import ExecStage, StageTrace, maybe_stage, new_trace

__all__ = ["execute_batch", "optical_key", "fast_path_eligible",
           "clear_plan_cache"]

#: Bounded cache of per-group capture plans, by optical key.
_PLAN_CACHE_MAX = 32
_PLAN_CACHE: "OrderedDict[str, CapturePlan]" = OrderedDict()
_PLAN_LOCK = threading.Lock()


def optical_key(spec: ScenarioSpec) -> str:
    """Grouping key: the resolved spec minus the noise seed.

    Delegates to :meth:`ScenarioSpec.optical_key` — the one derivation
    of grouping identity, shared with the engine's executor (see the
    regression test pinning both call sites together).
    """
    return spec.optical_key()


def fast_path_eligible(spec: ScenarioSpec) -> bool:
    """Whether a spec runs in an optics group: every single receiver
    does; receiver arrays are delegated to ``execute_scenario``."""
    return spec.n_receivers == 1


def clear_plan_cache() -> None:
    """Drop all cached group plans (tests and memory-sensitive callers)."""
    with _PLAN_LOCK:
        _PLAN_CACHE.clear()


def _plan_for(key: str, spec: ScenarioSpec,
              profile: StageTrace | None) -> CapturePlan:
    """An optics group's capture plan: a cache hit times its lookup as
    ``build``; a miss builds the plan and keeps it."""
    with maybe_stage(profile, ExecStage.BUILD):
        with _PLAN_LOCK:
            plan = _PLAN_CACHE.get(key)
            if plan is not None:
                _PLAN_CACHE.move_to_end(key)
    if plan is None:
        plan = capture_plan(spec, profile)
        with _PLAN_LOCK:
            _PLAN_CACHE[key] = plan
            while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
                _PLAN_CACHE.popitem(last=False)
    return plan


def group_specs(resolved) -> tuple[dict[str, list[int]],
                                  list[SpecIdentity | None]]:
    """The one grouping pass: the optics groups of resolved specs
    (optical key -> spec indices, in order of first appearance) and each
    spec's identity, None for those delegated to ``execute_scenario``."""
    groups: dict[str, list[int]] = {}
    idents: list[SpecIdentity | None] = [None] * len(resolved)
    for i, spec in enumerate(resolved):
        if fast_path_eligible(spec):
            idents[i] = ident = spec.identity()
            groups.setdefault(spec.optical_key(ident), []).append(i)
    return groups, idents


def execute_batch(specs) -> list[RunRecord]:
    """Execute a batch of scenarios, one rows step per optics group.

    Args:
        specs: iterable of :class:`ScenarioSpec` (resolved or not).

    Returns:
        One :class:`RunRecord` per spec, in submission order, each
        byte-identical to the serial executor's.  A group's records
        share its stage trace: each carries ``1/N`` of the timings and
        the group's counters, ``batch_rows`` among them.
    """
    resolved = [spec.resolve() for spec in specs]
    groups, idents = group_specs(resolved)
    records = [execute_scenario(spec) if ident is None else None
               for spec, ident in zip(resolved, idents)]
    for key, indices in groups.items():
        group = [resolved[i] for i in indices]
        started = time.perf_counter()
        profile = new_trace()
        try:
            plan = _plan_for(key, group[0], profile)
            codes = plan.capture(group, profile)
        except Exception:
            # The serial driver contains a scene that cannot be built
            # or captured, per spec, with the exact error records.
            group_records = [execute_scenario(spec) for spec in group]
        else:
            if profile is not None:
                profile.count("batch_rows", len(group))
            group_records = decode_captures(
                plan, codes, group, [idents[i] for i in indices], started,
                profile)
        for i, record in zip(indices, group_records):
            records[i] = record
    return records
