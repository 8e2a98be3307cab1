"""repro.perf — ``repro-engine bench``, the front end of the repository
benchmark (``perfbench/``, ``BENCHMARK.json``) of this source checkout.

Each workload runs :data:`RUNS` times as a ``perfbench/run.py --trace
0`` child process whose last stdout line is its JSON verdict; the
report keeps each metric's median.  A run fails the gate when it exits
non-zero or is not ``correct``; against a baseline of its mode (quick
or full), also when a workload or ``end_to_end`` metric is missing on
either side, or when a metric is worse than the baseline by more than
its ``BENCHMARK.json`` ``bound``, a fraction of the baseline value.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

__all__ = ["DEFAULT_BASELINE_PATH", "QUICK_SECONDS", "RUNS", "SCHEMA",
           "SEED", "Comparison", "checkout_root", "compare_reports",
           "default_baseline_path", "format_comparisons", "load_report",
           "median_run", "parse_run", "run_bench", "run_perfbench",
           "save_report"]

SCHEMA = "repro.perf/2"
#: Input seed of every run, so two runs of one tree time the same work.
SEED = 1
#: Timed seconds per run under ``--quick``; else ``run_seconds``.
QUICK_SECONDS = 5.0
#: Runs per workload, baseline and gate alike: one quick run's fleet
#: ``setup_s`` spanned 2.3-3.3 s on a 2-vCPU host, wider than its bound.
RUNS = 3
DEFAULT_BASELINE_PATH = Path("benchmarks/baselines/BENCH_perf_baseline.json")


def checkout_root() -> Path:
    """The source checkout holding this package under ``src/``; raises
    FileNotFoundError without ``perfbench/run.py``/``BENCHMARK.json``."""
    root = Path(__file__).resolve().parents[3]
    for needed in ("perfbench/run.py", "BENCHMARK.json"):
        if not (root / needed).is_file():
            raise FileNotFoundError(f"bench needs a source checkout, and "
                                    f"{root} has no {needed}")
    return root


def default_baseline_path() -> Path:
    """The committed baseline of this package's checkout."""
    return checkout_root() / DEFAULT_BASELINE_PATH


def run_perfbench(root: Path, workload: str,
                  seconds: float) -> tuple[int, str]:
    """One workload's run: ``(exit status, stdout)``; the child's
    stderr goes straight to this process's."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def parse_run(returncode: int, stdout: str) -> dict:
    """A run's report entry: exit status, ``meta`` and the JSON verdict.
    Output that does not parse leaves it not ``correct``, no metrics."""
    run: dict = {"returncode": returncode, "correct": False, "metrics": {}}
    lines = stdout.splitlines()
    try:
        for line in lines:
            if line.startswith("meta "):
                run["meta"] = json.loads(line[len("meta "):])
        if lines:
            run.update(json.loads(lines[-1]))
    except (ValueError, TypeError):
        pass
    return run


def median_run(runs: Sequence[dict]) -> dict:
    """Runs of one workload as one: the first that failed, else the
    first with each metric's median over all of them."""
    for run in runs:
        if run["returncode"] != 0 or run["correct"] is not True:
            return run
    for key, entry in runs[0]["metrics"].items():
        entry["value"] = statistics.median(
            run["metrics"][key]["value"] for run in runs)
    return runs[0]


def run_bench(root: Path, benchmark: dict, names: Sequence[str],
              quick: bool) -> dict:
    """Run each named workload :data:`RUNS` times into a report (see
    :func:`median_run`), printing each run's output as it ends."""
    seconds = QUICK_SECONDS if quick else float(benchmark["run_seconds"])
    report = {"schema": SCHEMA, "quick": quick, "seed": SEED,
              "seconds": seconds, "runs": RUNS, "workloads": {}}
    for name in names:
        entries = []
        for _ in range(RUNS):
            print(f"== {name}: perfbench/run.py, {seconds:g} s, "
                  f"seed {SEED}", flush=True)
            returncode, stdout = run_perfbench(root, name, seconds)
            print(stdout.rstrip(), flush=True)
            entries.append(parse_run(returncode, stdout))
        report["workloads"][name] = median_run(entries)
    return report


@dataclass(frozen=True)
class Comparison:
    """One gate row: an ``end_to_end`` metric or a run check (``exit
    status``, ``correct``, ``workload`` present on both sides), with a
    ``verdict`` of ``ok``, ``REGRESSED``, ``FAILED`` or ``MISSING``."""

    workload: str
    metric: str
    baseline: Any
    current: Any
    verdict: str = "ok"


def compare_reports(current: dict, baseline: dict | None, benchmark: dict,
                    names: Sequence[str] | None = None) -> list[Comparison]:
    """Check the runs of ``current``, then compare the workloads in
    ``names`` (default: every workload of either report) with
    ``baseline`` under the bounds of ``benchmark``."""
    runs = current["workloads"]
    rows = []
    for name, run in runs.items():
        if run.get("returncode") != 0:
            rows.append(Comparison(name, "exit status", 0,
                                   run.get("returncode"), "FAILED"))
        if run.get("correct") is not True:
            rows.append(Comparison(name, "correct", True,
                                   run.get("correct"), "FAILED"))
    if baseline is None:
        return rows
    bases = baseline["workloads"]
    for name in names or sorted(set(runs) | set(bases)):
        if name not in runs or name not in bases:
            rows.append(Comparison(
                name, "workload", "present" if name in bases else None,
                "present" if name in runs else None, "MISSING"))
            continue
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            base, cur = (side["metrics"].get(key, {}).get("value")
                         for side in (bases[name], runs[name]))
            if base is None or cur is None:
                verdict = "MISSING"
            else:
                worse = cur - base if metric["better"] == "lower" else base - cur
                verdict = ("REGRESSED" if worse > metric["bound"] * abs(base)
                           else "ok")
            rows.append(Comparison(name, key, base, cur, verdict))
    return rows


def format_comparisons(comparisons: Sequence[Comparison],
                       benchmark: dict) -> str:
    """The gate as an aligned table, with each metric's allowed change."""
    from ..analysis.reporting import format_table

    allowed = {m["name"]: ("+" if m["better"] == "lower" else "-")
               + f"{m['bound']:.0%}" for m in benchmark["end_to_end"]}
    rows = []
    for comp in comparisons:
        values = [f"{v:.4g}" if isinstance(v, float) else
                  "-" if v is None else str(v)
                  for v in (comp.baseline, comp.current)]
        change = "-"
        if isinstance(comp.current, float) and comp.baseline:
            change = f"{comp.current / comp.baseline - 1.0:+.1%}"
        rows.append((comp.workload, comp.metric, *values, change,
                     allowed.get(comp.metric, "-"), comp.verdict))
    return format_table(["workload", "metric", "baseline", "current",
                         "change", "allowed", "verdict"], rows)


def save_report(report: dict, path: str | Path) -> Path:
    """Write a bench report (a run or a baseline) as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_report(path: str | Path) -> dict:
    """Read a report written by :func:`save_report`; a file of any
    other schema raises ValueError."""
    report = json.loads(Path(path).read_text())
    if not isinstance(report, dict) or report.get("schema") != SCHEMA:
        raise ValueError(f"{path} is not a {SCHEMA} bench report")
    return report
