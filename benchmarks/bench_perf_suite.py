"""Performance acceptance: the vectorized DTW pays off, and
``repro-engine bench`` runs the repository benchmark end to end.

Unlike the ``bench_figXX`` files (which reproduce paper figures), this
bench pins this repo's *performance* claims:

* the wavefront DTW kernel is >= 10x faster than the pure-Python loop
  on two 2000-sample banded traces while returning bit-identical
  results;
* ``repro-engine bench --quick --workload live_sessions`` runs the real
  ``perfbench/run.py`` child processes and reports a correct run with
  every ``BENCHMARK.json`` end-to-end metric.

Gated behind ``--run-slow`` like every other bench.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro import perf
from repro.dsp.dtw import dtw
from repro.engine.cli import main as cli_main


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_banded_dtw_speedup_at_least_10x():
    rng = np.random.default_rng(42)
    t = np.linspace(0.0, 30.0, 2000)
    a = np.sin(t) + 0.1 * rng.normal(size=t.size)
    b = np.sin(t * 1.05) + 0.1 * rng.normal(size=t.size)
    t_ref, ref = _best_of(lambda: dtw(a, b, implementation="reference"),
                          repeats=1)
    t_vec, vec = _best_of(lambda: dtw(a, b, implementation="vectorized"))
    assert vec.distance == ref.distance
    assert vec.normalized_distance == ref.normalized_distance
    speedup = t_ref / t_vec
    print(f"\nbanded DTW 2000x2000: reference {t_ref * 1e3:.0f} ms, "
          f"vectorized {t_vec * 1e3:.0f} ms -> {speedup:.1f}x")
    assert speedup >= 10.0, (
        f"wavefront kernel only {speedup:.1f}x faster than the loop")


def test_bench_runs_live_sessions_end_to_end(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    code = cli_main(["bench", "--quick", "--workload", "live_sessions",
                     "--out", str(out),
                     "--baseline", str(tmp_path / "no-baseline.json")])
    assert code == 0
    report = perf.load_report(out)
    run = report["workloads"]["live_sessions"]
    assert run["returncode"] == 0 and run["correct"] is True
    benchmark = json.loads(
        (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    for metric in benchmark["end_to_end"]:
        assert run["metrics"][metric["name"]]["value"] > 0.0
