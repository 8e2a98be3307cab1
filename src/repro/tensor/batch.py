"""Cross-scenario batched execution: N captures as one (N x T) tensor.

:func:`execute_batch` is the tensor-backend counterpart of the serial
:func:`repro.engine.execute_scenario` loop.  It groups resolved specs by
their *optical key* — the resolved spec minus the noise seed — so the
expensive seed-independent physics (footprint kernel, pass geometry,
aperture illuminance and the front end's
:meth:`~repro.hardware.frontend.ReceiverFrontEnd.respond`) is computed
**once per group**.  Only the per-seed half runs per scenario, batched
as fused ``(N, T)`` array passes over the group in one process:
one :meth:`~repro.hardware.frontend.ReceiverFrontEnd.digitize` over the
group's noise rows, then one :func:`~repro.core.decoder.decode_rows`.

This module holds only the grouping (:func:`group_specs`, which also
cuts the batch runner's pool tasks), the plan cache and record
assembly; the receiver chain and the decode are the serial driver's
own functions, which the serial driver calls as a batch of one.

Equivalence contract: every :class:`~repro.engine.records.RunRecord` is
**byte-identical** (``canonical_json``) to the serial executor's record
for the same resolved spec, by construction:

* shared stages are seed-independent and computed with the very same
  functions the serial path calls;
* per-row stages run the serial functions on broadcast rows, which
  perform the identical IEEE operations per element;
* specs the fast path does not cover (networked receivers, streamed
  replay, fault-injected scenarios, the two-phase car decoder) are
  delegated to ``execute_scenario`` unchanged, as is any group whose
  fast path raises — correctness never depends on the fast path
  succeeding.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..core.decoder import DecoderConfig, decode_rows
from ..core.errors import PreambleNotFoundError
from ..engine.executor import build_simulator, execute_scenario
from ..engine.records import (
    RecordStage,
    RunRecord,
    make_record,
    outcome_stage,
)
from ..engine.spec import ScenarioSpec, SpecIdentity
from ..exec.graph import ExecStage, maybe_stage, new_trace
from ..tags.packet import Packet

__all__ = ["execute_batch", "optical_key", "fast_path_eligible",
           "clear_plan_cache"]

#: Bounded cache of per-group shared physics (see :class:`_GroupPlan`).
_PLAN_CACHE_MAX = 32
_PLAN_CACHE: "OrderedDict[str, _GroupPlan]" = OrderedDict()
_PLAN_LOCK = threading.Lock()


def optical_key(spec: ScenarioSpec) -> str:
    """Grouping key: the resolved spec minus the noise seed.

    Delegates to :meth:`ScenarioSpec.optical_key` — the one derivation
    of grouping identity, shared with the engine's executor (see the
    regression test pinning both call sites together).
    """
    return spec.optical_key()


def fast_path_eligible(spec: ScenarioSpec) -> bool:
    """Whether the fused tensor path covers this spec.

    Networked arrays, streamed replay, fault-injected scenarios and the
    two-phase car decoder keep their specialised serial paths (they are
    delegated, per spec, to ``execute_scenario`` — records stay
    identical by construction).
    """
    return (spec.n_receivers == 1 and spec.stream_chunk == 0
            and spec.decoder == "adaptive" and spec.fault_plan is None)


def clear_plan_cache() -> None:
    """Drop all cached group plans (tests and memory-sensitive callers)."""
    with _PLAN_LOCK:
        _PLAN_CACHE.clear()


# ----------------------------------------------------------------------
# Shared per-group physics
# ----------------------------------------------------------------------

@dataclass
class _GroupPlan:
    """Everything about a group that does not depend on the seed."""

    sim: object                # ChannelSimulator (caches kernel/profiles)
    t_start: float
    v0: np.ndarray             # detector response before noise
    sigma: np.ndarray          # detector noise sigma at v0


def _build_plan(spec: ScenarioSpec) -> _GroupPlan:
    """The seed-independent half of ``sim.capture_pass``, run once.

    The simulator's pass window, time grid and aperture illuminance,
    then the front end's ``respond``: everything before the noise draw.
    """
    sim = build_simulator(spec)
    t_start, duration = sim.pass_window()
    lux = sim.aperture_illuminance(sim.time_grid(duration, t_start))
    v0, sigma = sim.frontend.respond(lux, sim.config.sample_rate_hz)
    return _GroupPlan(sim=sim, t_start=t_start, v0=v0, sigma=sigma)


def _plan_for(key: str, spec: ScenarioSpec) -> _GroupPlan:
    with _PLAN_LOCK:
        plan = _PLAN_CACHE.get(key)
        if plan is not None:
            _PLAN_CACHE.move_to_end(key)
            return plan
    plan = _build_plan(spec)
    with _PLAN_LOCK:
        _PLAN_CACHE[key] = plan
        while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
            _PLAN_CACHE.popitem(last=False)
    return plan


def _capture_rows(plan: _GroupPlan, specs: list[ScenarioSpec]) -> np.ndarray:
    """Each spec's noise row through the front end's ``digitize``.

    Rows draw what the serial capture draws from the spec's seed
    (zeros without noise), so every row's codes are bit-identical to
    that spec's serial capture.
    """
    sim = plan.sim
    noise = np.zeros((len(specs), len(plan.v0)))
    if sim.config.include_noise:
        for row, spec in zip(noise, specs):
            row[:] = np.random.default_rng(spec.seed).normal(
                0.0, 1.0, size=len(row))
    return sim.frontend.digitize(plan.v0, plan.sigma, noise,
                                 sim.config.sample_rate_hz)


# ----------------------------------------------------------------------
# Group execution and the public entry point
# ----------------------------------------------------------------------

def _run_group(key: str, specs: list[ScenarioSpec],
               idents: list[SpecIdentity]) -> list[RunRecord]:
    started = time.perf_counter()
    spec0 = specs[0]
    profile = new_trace()

    with maybe_stage(profile, ExecStage.BUILD):
        plan = _plan_for(key, spec0)
        fs = plan.sim.config.sample_rate_hz
        packet = Packet.from_bitstring(spec0.bits,
                                       symbol_width_m=spec0.symbol_width_m)
    sent = packet.bit_string()

    with maybe_stage(profile, ExecStage.SIMULATE):
        raw = _capture_rows(plan, specs).astype(float)
    rows = decode_rows(raw, fs, plan.t_start, 2 * len(packet.data_bits),
                       DecoderConfig(threshold_rule=spec0.threshold_rule),
                       stage_trace=profile)

    elapsed = (time.perf_counter() - started) / max(1, len(specs))
    if profile is not None:
        # The group ran its fused stages once for the whole row stack;
        # each record carries an equal per-scenario share so stage
        # totals aggregate the same way serial traces do, and the
        # group's counters (``batch_rows`` marks a fused trace).
        profile.count("batch_rows", len(specs))
        profile = profile.scaled(1.0 / max(1, len(specs)))
    records = []
    for r, (spec, ident) in enumerate(zip(specs, idents)):
        error = rows.errors[r]
        if error is None:
            decoded = rows.bit_string(r)
            stage = outcome_stage(decoded, sent)
        else:
            decoded = ""
            stage = (RecordStage.PREAMBLE_NOT_FOUND
                     if isinstance(error, PreambleNotFoundError)
                     else RecordStage.DECODE_FAILED).value
        records.append(make_record(
            spec_hash=ident.content_hash,
            spec=ident.payload,
            seed=spec.seed,
            sent_bits=sent,
            decoded_bits=decoded,
            stage=stage,
            n_samples=raw.shape[1],
            sample_rate_hz=fs,
            noise_floor_lux=plan.sim.noise_floor_lux,
            elapsed_s=elapsed,
            stage_trace=profile,
        ))
    return records


def group_specs(resolved) -> tuple[dict[str, list[int]],
                                  list[SpecIdentity | None]]:
    """The one grouping pass: the fused optics groups of resolved specs
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
    """Execute a batch of scenarios through the fused tensor path.

    Args:
        specs: iterable of :class:`ScenarioSpec` (resolved or not).

    Returns:
        One :class:`RunRecord` per spec, in submission order, each
        byte-identical to the serial executor's.
    """
    resolved = [spec.resolve() for spec in specs]
    groups, idents = group_specs(resolved)
    records = [execute_scenario(spec) if ident is None else None
               for spec, ident in zip(resolved, idents)]
    for key, indices in groups.items():
        group = [resolved[i] for i in indices]
        try:
            group_records = _run_group(
                key, group, [idents[i] for i in indices])
        except Exception:
            # Correctness never rides on the fast path: any failure —
            # degenerate geometry, a scene that raises mid-physics —
            # re-runs the group through the serial executor, which
            # produces the exact records (including error records).
            group_records = [execute_scenario(spec) for spec in group]
        for i, record in zip(indices, group_records):
            records[i] = record
    return records
