"""Fig. 6(a) — maximal decodable height vs symbol width.

Paper: a decodable region bounded by a *linear* relationship between
maximal emitter/receiver height and symbol width (1.5-7.5 cm symbols
mapping to roughly 0.2-0.5 m).  The reproduction asserts positive slope
and a linear fit with R^2 >= 0.85; the absolute frontier sits at
slightly wider symbols than the paper's, because the capped photodiode
accepts a wider cone than the paper's optics.
"""

from repro.analysis.experiments import experiment_fig6a

from conftest import report


def test_fig06a_linear_frontier(benchmark):
    result = benchmark.pedantic(experiment_fig6a, kwargs={"quick": True},
                                rounds=1, iterations=1)
    report(result)
    assert result.passed, result.report()
    assert result.measured["linear_slope_m_per_m"] > 0.0
    assert result.measured["r_squared"] >= 0.85
