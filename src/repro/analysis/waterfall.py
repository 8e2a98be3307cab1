"""Decode-rate waterfall curves: failure analysis beyond single points.

The paper reports single operating points (decodable at 450 lux, not at
100 lux).  A downstream user needs the full curve: how the decode rate
falls as the ambient light dims, as dirt accumulates on the tag, or as
fog thickens.  This module sweeps those stressors through the complete
stack and reports per-point decode rates with the crossover (the
stressor level where the rate first drops below a target).  Each curve
is one engine batch: :func:`~repro.analysis.experiments.outdoor_tag_spec`
(a bare tag under the RX-LED) expanded over (stress level x seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..engine import BatchRunner, expand_grid, success_rate_by
from .experiments import outdoor_tag_spec

__all__ = ["WaterfallPoint", "WaterfallCurve", "noise_floor_waterfall",
           "dirt_waterfall", "fog_waterfall"]


@dataclass(frozen=True)
class WaterfallPoint:
    """One stressor level's outcome.

    Attributes:
        stress: the swept parameter's value.
        decode_rate: fraction of seeded passes decoded exactly.
    """

    stress: float
    decode_rate: float


@dataclass
class WaterfallCurve:
    """A decode-rate curve over a swept stressor.

    Attributes:
        parameter: name of the swept quantity.
        points: outcomes, in sweep order.
    """

    parameter: str
    points: list[WaterfallPoint] = field(default_factory=list)

    def crossover(self, target_rate: float = 0.5) -> float | None:
        """First stress level where the rate drops below ``target_rate``.

        Points are scanned in sweep order; None when the rate never
        drops below the target.
        """
        if not 0.0 < target_rate <= 1.0:
            raise ValueError("target rate must be in (0, 1]")
        for point in self.points:
            if point.decode_rate < target_rate:
                return point.stress
        return None

    def rates(self) -> list[float]:
        """Decode rates in sweep order."""
        return [p.decode_rate for p in self.points]

    def render(self, width: int = 30) -> str:
        """ASCII rendering of the curve."""
        lines = [f"decode rate vs {self.parameter}"]
        for p in self.points:
            bar = "#" * int(round(width * p.decode_rate))
            lines.append(f"{p.stress:10.3g} | {bar} {p.decode_rate:.2f}")
        return "\n".join(lines)


def _waterfall(parameter: str, axis: str, levels: Sequence[float],
               bits: str, symbol_width_m: float, lux: float,
               height_m: float, speed_mps: float,
               seeds: Sequence[int]) -> WaterfallCurve:
    """Decode rate per level of one spec field, over the seeds."""
    template = outdoor_tag_spec(bits, lux, height_m).replace(
        symbol_width_m=symbol_width_m, speed_mps=speed_mps)
    specs = expand_grid(template, {axis: list(levels), "seed": list(seeds)})
    records = BatchRunner(backend="tensor").run(specs).records
    rates = success_rate_by(records, axis)
    return WaterfallCurve(parameter=parameter, points=[
        WaterfallPoint(stress=float(level), decode_rate=rates[level])
        for level in levels])


def noise_floor_waterfall(lux_levels: Sequence[float],
                          bits: str = "00",
                          symbol_width_m: float = 0.1,
                          height_m: float = 0.25,
                          speed_mps: float = 5.0,
                          seeds: Sequence[int] = (2, 3, 4, 5, 6),
                          ) -> WaterfallCurve:
    """Decode rate vs ambient noise floor (generalises Fig. 15)."""
    # The template's noise floor is a placeholder: the sweep sets it.
    return _waterfall("noise floor (lux)", "ground_lux", lux_levels, bits,
                      symbol_width_m, 6200.0, height_m, speed_mps, seeds)


def dirt_waterfall(dirt_levels: Sequence[float],
                   bits: str = "00",
                   symbol_width_m: float = 0.1,
                   lux: float = 6200.0,
                   height_m: float = 0.75,
                   speed_mps: float = 5.0,
                   seeds: Sequence[int] = (2, 3, 4, 5, 6),
                   ) -> WaterfallCurve:
    """Decode rate vs tag dirt coverage (the Section 3 distortion).

    Raises:
        ValueError: for a dirt factor outside [0, 1].
    """
    return _waterfall("dirt factor", "dirt", dirt_levels, bits,
                      symbol_width_m, lux, height_m, speed_mps, seeds)


def fog_waterfall(visibilities_m: Sequence[float],
                  bits: str = "00",
                  symbol_width_m: float = 0.1,
                  lux: float = 6200.0,
                  height_m: float = 0.75,
                  speed_mps: float = 5.0,
                  seeds: Sequence[int] = (2, 3, 4, 5, 6),
                  ) -> WaterfallCurve:
    """Decode rate vs meteorological visibility (fog stress).

    Swept from clear towards dense fog; note the stress axis is
    *decreasing* visibility.
    """
    return _waterfall("visibility (m), decreasing", "visibility_m",
                      visibilities_m, bits, symbol_width_m, lux, height_m,
                      speed_mps, seeds)
