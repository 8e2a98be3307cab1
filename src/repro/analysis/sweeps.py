"""Parameter sweeps for the Fig. 6 capacity maps.

The Fig. 6 experiments sweep emitter/receiver height against symbol
width, probing decodability at each grid point (paper: heights 20-55 cm,
widths 1.5-7.5 cm, speed 8 cm/s).  Grid sweeps execute through
:mod:`repro.engine` — every (height, width, seed) cell becomes a
:class:`~repro.engine.ScenarioSpec` and runs through a
:class:`~repro.engine.BatchRunner`, so sweeps parallelize across cores
and repeated sweeps hit the engine's result cache.  The bisection-based
frontier searches reuse the sequential single-point probes in
:mod:`repro.core.capacity` (each probe depends on the previous verdict,
so there is nothing to batch).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.capacity import IndoorSetup, min_decodable_width
from ..engine import (
    BatchResult,
    BatchRunner,
    RunRecord,
    ScenarioSpec,
    expand_grid,
    fusion_stats,
)
from ..scenarios import expand_family

__all__ = ["DecodabilityGrid", "FusionGainSweep", "probe_spec",
           "sweep_decodability", "sweep_frontier", "sweep_fusion_gain",
           "sweep_scenario_family", "sweep_throughput"]


def probe_spec(setup: IndoorSetup, height_m: float, symbol_width_m: float,
               seed: int, speed_mps: float | None = None) -> ScenarioSpec:
    """The engine spec equivalent to one dark-room decodability probe.

    Reproduces :func:`repro.core.capacity.probe_decodable`'s scene
    exactly — same lamp, start margin, sampling rule, decoder and seed —
    so engine-run grids agree with the sequential probes cell for cell.
    """
    speed = speed_mps if speed_mps is not None else setup.speed_mps
    return ScenarioSpec(
        bits=setup.data_bits,
        symbol_width_m=symbol_width_m,
        receiver_height_m=height_m,
        speed_mps=speed,
        source="led_lamp",
        lamp_intensity_cd=setup.lamp_intensity_cd,
        lamp_offset_m=setup.lamp_offset_m,
        detector="pd",
        pd_gain=setup.pd_gain.name,
        cap=True,
        sample_rate_hz=setup.sample_rate_hz(symbol_width_m, speed),
        threshold_rule=setup.threshold_rule,
        seed=seed,
    )


@dataclass
class DecodabilityGrid:
    """Decodability over a (height x width) grid.

    Attributes:
        heights_m: grid heights (ascending).
        widths_m: grid symbol widths (ascending).
        decodable: boolean matrix ``[i_height, j_width]``.
    """

    heights_m: np.ndarray
    widths_m: np.ndarray
    decodable: np.ndarray

    def max_height_for_width(self, j: int) -> float | None:
        """Largest decodable height for width column ``j`` (None: none)."""
        col = self.decodable[:, j]
        idx = np.nonzero(col)[0]
        if len(idx) == 0:
            return None
        return float(self.heights_m[idx[-1]])

    def frontier(self) -> list[tuple[float, float]]:
        """(width, max decodable height) pairs where decodable at all."""
        out: list[tuple[float, float]] = []
        for j, width in enumerate(self.widths_m):
            h = self.max_height_for_width(j)
            if h is not None:
                out.append((float(width), h))
        return out

    def render(self) -> str:
        """ASCII map of the decodable region (rows: heights, top=high)."""
        lines = ["      " + " ".join(f"{w * 100:4.1f}" for w in self.widths_m)
                 + "   (symbol width, cm)"]
        for i in reversed(range(len(self.heights_m))):
            cells = "    ".join("#" if self.decodable[i, j] else "."
                                for j in range(len(self.widths_m)))
            lines.append(f"{self.heights_m[i]:5.2f} {cells}")
        lines.append("(height, m;  # = decodable)")
        return "\n".join(lines)


def sweep_decodability(setup: IndoorSetup,
                       heights_m: np.ndarray,
                       widths_m: np.ndarray,
                       runner: BatchRunner | None = None,
                       ) -> DecodabilityGrid:
    """Probe every (height, width) grid point through the engine.

    Every cell fans out into one scenario per noise seed; the whole
    (height x width x seed) batch executes through ``runner`` — pass a
    parallel, cached :class:`~repro.engine.BatchRunner` to spread the
    sweep across cores and make repeated sweeps near-free.  A cell is
    decodable when the majority of its seeds recover the exact payload
    (the same vote :func:`repro.core.capacity.probe_decodable` takes).

    The default runner spreads the batch over every core — unlike the
    old serial loop, the full grid is probed (no monotonicity
    early-exit), so parallelism is what keeps the sweep cheap.
    """
    heights = np.sort(np.asarray(heights_m, dtype=float))
    widths = np.sort(np.asarray(widths_m, dtype=float))
    if len(heights) == 0 or len(widths) == 0:
        raise ValueError("sweep grids must be non-empty")
    runner = runner or BatchRunner.local()
    specs = []
    for width in widths:
        # The sampling rate follows the symbol width, so the grid is
        # expanded per column with (height x seed) as the inner axes.
        specs.extend(expand_grid(
            probe_spec(setup, heights[0], float(width), setup.seeds[0]),
            {"receiver_height_m": [float(h) for h in heights],
             "seed": list(setup.seeds)}))
    records = runner.run(specs).records
    grid = np.zeros((len(heights), len(widths)), dtype=bool)
    n_seeds = len(setup.seeds)
    index = 0
    for j in range(len(widths)):
        for i in range(len(heights)):
            cell = records[index:index + n_seeds]
            index += n_seeds
            grid[i, j] = sum(r.success for r in cell) * 2 > n_seeds
    return DecodabilityGrid(heights_m=heights, widths_m=widths,
                            decodable=grid)


def sweep_scenario_family(expr: str, count: int = 100, seed: int = 0,
                          template: ScenarioSpec | None = None,
                          runner: BatchRunner | None = None) -> BatchResult:
    """Expand a scenario family (or composition) and run it.

    The analysis-layer entry to the scenario zoo: any registered family
    expression (``"convoy"``, ``"highway*fog"``) becomes one engine
    batch — parallel across cores by default, cacheable by passing a
    runner with a :class:`~repro.engine.SqliteResultCache`.

    Args:
        expr: family name or ``*``-composition (see
            :func:`repro.scenarios.family_names`).
        count: scenarios to draw.
        seed: expansion seed (same seed -> same scenarios).
        template: base spec the family varies.
        runner: batch runner; defaults to one worker per core.
    """
    specs = expand_family(expr, count=count, seed=seed, template=template)
    return (runner or BatchRunner.local()).run(specs)


@dataclass
class FusionGainSweep:
    """The Section 6 improvement curve: decode rate vs receiver count.

    Attributes:
        n_receivers: swept receiver counts (ascending).
        fused_rates: network fused decode rate per count.
        best_node_rates: best-single-receiver decode rate per count.
        mean_gains: mean per-pass fusion gain per count.
        mean_speed_errors: mean relative tracked-speed error per count
            (None where no pass produced an estimate — single-receiver
            rows never track).
        records: every underlying run record, grouped per count.
    """

    n_receivers: list[int]
    fused_rates: list[float]
    best_node_rates: list[float]
    mean_gains: list[float]
    mean_speed_errors: list[float | None]
    records: dict[int, list[RunRecord]] = field(default_factory=dict)

    def render(self) -> str:
        """ASCII table of the improvement curve."""
        from .reporting import format_table

        rows = [(n, f"{f:.3f}", f"{b:.3f}", f"{g:+.3f}",
                 "-" if e is None else f"{e:.3f}")
                for n, f, b, g, e in zip(
                    self.n_receivers, self.fused_rates,
                    self.best_node_rates, self.mean_gains,
                    self.mean_speed_errors)]
        return format_table(
            ["receivers", "fused rate", "best node rate", "fusion gain",
             "speed err"], rows)


def sweep_fusion_gain(n_receivers: tuple[int, ...] = (1, 2, 3, 4, 5),
                      count: int = 40, seed: int = 0,
                      template: ScenarioSpec | None = None,
                      runner: BatchRunner | None = None,
                      family: str = "corridor") -> FusionGainSweep:
    """Decode rate vs number of networked receivers (Section 6 claim).

    Draws ``count`` noise-stressed passes from ``family`` once, then
    replays the *same* passes at every receiver count, so the curve
    isolates the networking effect from scenario sampling noise.  Runs
    as one engine batch — parallel across cores by default, cacheable
    via a runner with a :class:`~repro.engine.SqliteResultCache`.

    Args:
        n_receivers: receiver counts to sweep (1 = the single-receiver
            baseline pipeline).
        count: passes drawn from the family per count.
        seed: family expansion seed.
        template: base spec the family varies.
        runner: batch runner; defaults to one worker per core.
    """
    if not n_receivers:
        raise ValueError("n_receivers must be non-empty")
    counts = sorted(set(int(n) for n in n_receivers))
    if counts[0] < 1:
        raise ValueError(f"receiver counts must be >= 1, got {counts[0]}")
    # Resolve the bases *before* replicating across receiver counts:
    # family specs carry seed=None, and the derived seed hashes the
    # whole spec (n_receivers included), so an unresolved base would
    # re-draw a different pass realization at every count — the exact
    # sampling noise this sweep is meant to hold fixed.
    bases = [base.resolve() for base in
             expand_family(family, count=count, seed=seed,
                           template=template)]
    specs = [base.replace(n_receivers=n)
             for n in counts for base in bases]
    records = (runner or BatchRunner.local()).run(specs).records
    sweep = FusionGainSweep(n_receivers=counts, fused_rates=[],
                            best_node_rates=[], mean_gains=[],
                            mean_speed_errors=[])
    for i, n in enumerate(counts):
        group = records[i * len(bases):(i + 1) * len(bases)]
        stats = fusion_stats(group)
        sweep.records[n] = group
        sweep.fused_rates.append(stats["fused_rate"])
        sweep.best_node_rates.append(stats["best_node_rate"])
        sweep.mean_gains.append(stats["mean_fusion_gain"])
        sweep.mean_speed_errors.append(stats["mean_speed_error"])
    return sweep


def sweep_frontier(setup: IndoorSetup, widths_m: np.ndarray,
                   height_lo_m: float = 0.18,
                   height_hi_m: float = 0.9,
                   tolerance_m: float = 0.02,
                   ) -> list[tuple[float, float]]:
    """Max decodable height per width via bisection (Fig. 6(a) curve)."""
    from ..core.capacity import max_decodable_height

    out: list[tuple[float, float]] = []
    for width in np.sort(np.asarray(widths_m, dtype=float)):
        h = max_decodable_height(setup, float(width),
                                 height_lo_m=height_lo_m,
                                 height_hi_m=height_hi_m,
                                 tolerance_m=tolerance_m)
        if h is not None:
            out.append((float(width), h))
    return out


def sweep_throughput(setup: IndoorSetup, heights_m: np.ndarray,
                     width_lo_m: float = 0.008,
                     width_hi_m: float = 0.14,
                     tolerance_m: float = 0.003,
                     ) -> list[tuple[float, float]]:
    """Throughput (symbols/s) per height (Fig. 6(b) curve).

    For each height, bisect for the narrowest decodable width and report
    ``speed / width``; heights where nothing decodes are omitted.
    """
    out: list[tuple[float, float]] = []
    for height in np.sort(np.asarray(heights_m, dtype=float)):
        width = min_decodable_width(setup, float(height),
                                    width_lo_m=width_lo_m,
                                    width_hi_m=width_hi_m,
                                    tolerance_m=tolerance_m)
        if width is not None:
            out.append((float(height), setup.speed_mps / width))
    return out
