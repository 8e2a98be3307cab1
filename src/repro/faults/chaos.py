"""Chaos sweeps: decode success versus fault intensity.

The first cut of the ROADMAP's failure-frontier catalogue: take a base
:class:`FaultPlan`, scale it across a ladder of intensities, and run
the *same underlying passes* (fault plans do not perturb the noise
seed) at each rung through the engine.  The resulting curve — decode
rate vs corruption level — is the measured degradation frontier for
that fault mix, deterministic end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..engine.records import RunRecord
from ..engine.report import (executor_error_count, fault_event_totals,
                             fused_rate, success_rate)
from ..engine.runner import BatchRunner
from ..engine.spec import ScenarioSpec
from .plan import FaultPlan

__all__ = ["ChaosPoint", "ChaosSweep", "sweep_fault_intensity"]


@dataclass
class ChaosPoint:
    """Aggregates for one fault-intensity rung.

    Attributes:
        intensity: the scale factor applied to the base plan.
        plan: the concrete scaled plan that ran.
        records: the rung's run records.
        decode_rate: exact-payload decode rate at this rung.
        fused_rate: fused decode rate (equals ``decode_rate`` for
            single-receiver scenarios).
        fault_events: total injected fault events, summed by kind.
        executor_errors: records the runner had to synthesize
            (timeouts, crashed workers) rather than execute.
    """

    intensity: float
    plan: FaultPlan
    records: list[RunRecord] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.records)

    @property
    def decode_rate(self) -> float:
        return success_rate(self.records)

    @property
    def fused_rate(self) -> float:
        return fused_rate(self.records)

    @property
    def fault_events(self) -> dict[str, int]:
        return fault_event_totals(self.records)

    @property
    def executor_errors(self) -> int:
        return executor_error_count(self.records)


@dataclass
class ChaosSweep:
    """One full intensity ladder for one fault mix."""

    base_plan: FaultPlan
    points: list[ChaosPoint] = field(default_factory=list)

    def degradation(self) -> float:
        """Decode-rate drop from the weakest to the strongest rung."""
        if len(self.points) < 2:
            return 0.0
        return self.points[0].decode_rate - self.points[-1].decode_rate

    def render(self) -> str:
        """ASCII frontier table (the ``repro-engine chaos`` output)."""
        lines = ["chaos frontier   (intensity | decode | fused | "
                 "fault events | exec errors)"]
        for point in self.points:
            bar = "#" * int(round(30 * point.decode_rate))
            events = sum(point.fault_events.values())
            lines.append(
                f"  {point.intensity:>6.3f} | {bar} {point.decode_rate:.2f}"
                f" | {point.fused_rate:.2f} | {events:>6d}"
                f" | {point.executor_errors}")
        return "\n".join(lines)


def sweep_fault_intensity(specs: Sequence[ScenarioSpec], plan: FaultPlan,
                          intensities: Sequence[float],
                          runner: BatchRunner | None = None) -> ChaosSweep:
    """Run the same scenarios at every rung of a fault-intensity ladder.

    Args:
        specs: base scenarios (any existing ``fault_plan`` is replaced
            rung by rung; an intensity of 0 strips it entirely so the
            rung is a genuinely clean baseline).
        plan: the fault mix to scale.
        intensities: ladder of scale factors (run in the given order).
        runner: optional shared :class:`BatchRunner` (a cache-backed
            runner makes repeated frontiers cheap); default serial.

    Returns:
        A :class:`ChaosSweep` with one :class:`ChaosPoint` per rung.
    """
    if not intensities:
        raise ValueError("need at least one intensity")
    if plan.empty:
        raise ValueError("base fault plan is empty; nothing to sweep")
    runner = runner or BatchRunner()
    sweep = ChaosSweep(base_plan=plan)
    for intensity in intensities:
        scaled = plan.scaled(intensity)
        rung_plan = None if scaled.empty else scaled
        rung_specs = [spec.replace(fault_plan=rung_plan) for spec in specs]
        result = runner.run(rung_specs)
        sweep.points.append(ChaosPoint(intensity=float(intensity),
                                       plan=scaled,
                                       records=result.records))
    return sweep
