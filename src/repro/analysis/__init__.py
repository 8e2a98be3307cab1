"""Analysis: metrics, parameter sweeps, per-figure experiments, reports."""

from .experiments import (
    ExperimentResult,
    experiment_fig5,
    experiment_fig6a,
    experiment_fig6b,
    experiment_fig7,
    experiment_fig8,
    experiment_fig10,
    experiment_fig11,
    experiment_fig13,
    experiment_fig14,
    experiment_fig15,
    experiment_fig16,
    experiment_fig17,
)
from .metrics import (
    ExponentialFit,
    LinearFit,
    bit_error_rate,
    fit_exponential,
    fit_linear,
    symbol_error_rate,
    throughput_sps,
)
from .reporting import format_series, format_table, summarize_results
from .waterfall import (
    WaterfallCurve,
    WaterfallPoint,
    dirt_waterfall,
    fog_waterfall,
    noise_floor_waterfall,
)
from .sweeps import (
    DecodabilityGrid,
    FusionGainSweep,
    sweep_decodability,
    sweep_frontier,
    sweep_fusion_gain,
    sweep_scenario_family,
    sweep_throughput,
)

__all__ = [
    "ExperimentResult",
    "experiment_fig5", "experiment_fig6a", "experiment_fig6b",
    "experiment_fig7", "experiment_fig8", "experiment_fig10",
    "experiment_fig11", "experiment_fig13", "experiment_fig14",
    "experiment_fig15", "experiment_fig16", "experiment_fig17",
    "ExponentialFit", "LinearFit", "bit_error_rate", "fit_exponential",
    "fit_linear", "symbol_error_rate", "throughput_sps",
    "format_series", "format_table", "summarize_results",
    "DecodabilityGrid", "FusionGainSweep", "sweep_decodability",
    "sweep_frontier", "sweep_fusion_gain", "sweep_scenario_family",
    "sweep_throughput",
    "WaterfallCurve", "WaterfallPoint", "noise_floor_waterfall",
    "dirt_waterfall", "fog_waterfall",
]
