"""Tests for repro.perf — ``repro-engine bench``, the benchmark's front end.

Every test runs on canned ``perfbench/run.py`` output: the one function
that starts the child process is replaced, so nothing here times the
host.  Pinned: which workloads run and for how long, how a run's
output is read, the report files, and every way the gate fails.  The
bounds are the real ``BENCHMARK.json`` ones.
"""

import copy
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import perf
from repro.engine.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]

#: Plausible end-to-end values per workload (their size is irrelevant).
METRICS = {
    "grid_shared_optics": {"verdict_ms_p50": 90.0, "scenarios_per_s": 2900.0,
                           "ksamples_per_s": 4100.0, "peak_rss_mb": 140.0,
                           "setup_s": 1.0},
    "fleet_pool_halfwarm": {"verdict_ms_p50": 115.0, "scenarios_per_s": 830.0,
                            "ksamples_per_s": 1180.0, "peak_rss_mb": 347.0,
                            "setup_s": 2.6},
    "live_sessions": {"verdict_ms_p50": 3.1, "scenarios_per_s": 55.0,
                      "ksamples_per_s": 117.0, "peak_rss_mb": 147.0,
                      "setup_s": 3.0},
}
META = {"cores": 2, "machine": "x86_64", "python": "3.11.7"}


def perfbench_stdout(metrics, correct=True):
    """What ``perfbench/run.py --trace 0`` prints for one run."""
    lines = ["meta " + json.dumps(META, sort_keys=True)]
    lines += [f"{name:<28} {value:14.6f}" for name, value in metrics.items()]
    lines.append(json.dumps({
        "correct": correct, "attempted": 24, "failed": 0 if correct else 1,
        "metrics": {name: {"value": value, "unit": "u"}
                    for name, value in metrics.items()}}))
    return "\n".join(lines) + "\n"


def make_report(metrics=None, quick=True):
    metrics = METRICS if metrics is None else metrics
    return {"schema": perf.SCHEMA, "quick": quick, "seed": perf.SEED,
            "seconds": perf.QUICK_SECONDS, "runs": perf.RUNS,
            "workloads": {name: perf.parse_run(0, perfbench_stdout(values))
                          for name, values in metrics.items()}}


class FakePerfbench:
    """Stands in for :func:`repro.perf.run_perfbench`."""

    def __init__(self):
        self.calls = []
        self.metrics = copy.deepcopy(METRICS)
        self.correct = {}
        self.raw = {}

    def __call__(self, root, workload, seconds):
        self.calls.append((workload, seconds))
        if workload in self.raw:
            return self.raw[workload]
        correct = self.correct.get(workload, True)
        return (0 if correct else 1,
                perfbench_stdout(self.metrics[workload], correct))


@pytest.fixture
def perfbench(monkeypatch):
    fake = FakePerfbench()
    monkeypatch.setattr(perf, "run_perfbench", fake)
    return fake


def bench(tmp_path, *extra, baseline=None):
    out = tmp_path / "BENCH_perf.json"
    baseline = baseline or tmp_path / "baseline.json"
    code = cli_main(["bench", "--quick", "--out", str(out),
                     "--baseline", str(baseline), *extra])
    return code, out


def worse(metric, value, factor):
    """``value`` moved ``factor`` of its bound in the worse direction."""
    spec = {m["name"]: m for m in BENCHMARK["end_to_end"]}[metric]
    step = factor * spec["bound"] * value
    return value + step if spec["better"] == "lower" else value - step


def regressed(comparisons):
    return [(c.workload, c.metric) for c in comparisons if c.verdict != "ok"]


class TestSuiteMechanics:
    def test_runs_every_benchmark_workload_in_order(self, perfbench,
                                                    tmp_path):
        code, out = bench(tmp_path)
        assert code == 0
        assert [name for name, _ in perfbench.calls] == [
            name for name in WORKLOADS for _ in range(perf.RUNS)]
        report = perf.load_report(out)
        assert sorted(report["workloads"]) == sorted(WORKLOADS)
        for run in report["workloads"].values():
            assert run["correct"] is True and run["returncode"] == 0
            assert sorted(run["metrics"]) == sorted(END_TO_END)

    def test_quick_mode_runs_quick_seconds(self, perfbench, tmp_path):
        code, out = bench(tmp_path)
        assert code == 0
        assert {s for _, s in perfbench.calls} == {perf.QUICK_SECONDS}
        assert perf.load_report(out)["quick"] is True
        perfbench.calls.clear()
        out = tmp_path / "full.json"
        assert cli_main(["bench", "--out", str(out), "--baseline",
                         str(tmp_path / "none.json")]) == 0
        assert {s for _, s in perfbench.calls} == {BENCHMARK["run_seconds"]}
        report = perf.load_report(out)
        assert report["quick"] is False
        assert report["seconds"] == BENCHMARK["run_seconds"]

    def test_name_selection_and_unknown_rejected(self, perfbench, tmp_path,
                                                 capsys):
        code, out = bench(tmp_path, "--workload", "live_sessions")
        assert code == 0
        assert perfbench.calls == \
            [("live_sessions", perf.QUICK_SECONDS)] * perf.RUNS
        assert list(perf.load_report(out)["workloads"]) == ["live_sessions"]
        perfbench.calls.clear()
        code, _ = bench(tmp_path, "--workload", "dtw_banded")
        assert code == 2
        assert perfbench.calls == []
        assert "unknown workload(s) ['dtw_banded']" in capsys.readouterr().err

    def test_environment_meta_recorded(self, perfbench, tmp_path):
        _, out = bench(tmp_path)
        for run in perf.load_report(out)["workloads"].values():
            assert run["meta"] == META

    def test_child_command_line(self, monkeypatch):
        seen = {}

        def fake_run(argv, **kwargs):
            seen.update(argv=argv, **kwargs)
            return SimpleNamespace(returncode=3, stdout="out\n")

        monkeypatch.setattr(perf.subprocess, "run", fake_run)
        root = perf.checkout_root()
        assert perf.run_perfbench(root, "live_sessions", 5.0) == (3, "out\n")
        assert seen["argv"] == [
            sys.executable, str(root / "perfbench" / "run.py"),
            "--workload", "live_sessions", "--seed", str(perf.SEED),
            "--seconds", "5", "--trace", "0"]
        assert seen["cwd"] == root

    def test_outside_a_checkout_exits_2(self, perfbench, monkeypatch,
                                        tmp_path, capsys):
        installed = tmp_path / "site-packages" / "repro" / "perf"
        monkeypatch.setattr(perf, "__file__", str(installed / "__init__.py"))
        assert cli_main(["bench", "--quick"]) == 2
        assert "needs a source checkout" in capsys.readouterr().err
        assert perfbench.calls == []

    def test_help_lists_only_the_gate_options(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["bench", "--help"])
        assert exit_info.value.code == 0
        options = {word.strip("[],") for word in capsys.readouterr().out.split()
                   if word.lstrip("[").startswith("--")}
        assert options == {"--help", "--quick", "--workload", "--out",
                           "--baseline", "--update-baseline"}


class TestParseRun:
    def test_reads_meta_and_final_json_line(self):
        run = perf.parse_run(0, perfbench_stdout(METRICS["live_sessions"]))
        assert run["returncode"] == 0 and run["correct"] is True
        assert run["meta"] == META
        assert run["metrics"]["setup_s"] == {"value": 3.0, "unit": "u"}

    def test_unparsable_output_is_not_correct(self):
        for stdout in ("", "Traceback (most recent call last):\n",
                       "meta {torn\n", "[1, 2]\n"):
            run = perf.parse_run(1, stdout)
            assert run["correct"] is False and run["metrics"] == {}


class TestMedianRun:
    def test_report_keeps_each_metrics_median(self, monkeypatch):
        # Three runs whose metrics order differently: each metric keeps
        # its own median, not the values of one middle run.
        runs = iter([(3.0, 5.0), (9.0, 1.0), (6.0, 9.0)])

        def varying(root, workload, seconds):
            verdict_ms, setup_s = next(runs)
            return 0, perfbench_stdout(
                {"verdict_ms_p50": verdict_ms, "setup_s": setup_s})

        monkeypatch.setattr(perf, "run_perfbench", varying)
        monkeypatch.setattr(perf, "RUNS", 3)
        report = perf.run_bench(REPO_ROOT, BENCHMARK, ["live_sessions"],
                                quick=True)
        run = report["workloads"]["live_sessions"]
        assert report["runs"] == 3 and run["correct"] is True
        assert {k: v["value"] for k, v in run["metrics"].items()} == {
            "verdict_ms_p50": 6.0, "setup_s": 5.0}

    def test_a_failed_run_is_kept_as_the_result(self):
        good = perf.parse_run(0, perfbench_stdout(METRICS["live_sessions"]))
        bad = perf.parse_run(
            1, perfbench_stdout(METRICS["live_sessions"], correct=False))
        assert perf.median_run([good, bad, good]) is bad


class TestStats:
    def test_json_round_trip(self, tmp_path, capsys):
        report = make_report()
        path = perf.save_report(report, tmp_path / "deep" / "r.json")
        assert perf.load_report(path) == report
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"schema": "repro.perf/1", "quick": True}))
        with pytest.raises(ValueError, match="not a repro.perf/2"):
            perf.load_report(old)


class TestBaselineComparison:
    def test_regression_flagged_above_tolerance(self):
        baseline = make_report()
        for metric in END_TO_END:
            metrics = copy.deepcopy(METRICS)
            value = metrics["fleet_pool_halfwarm"][metric]
            metrics["fleet_pool_halfwarm"][metric] = worse(metric, value, 1.05)
            comparisons = perf.compare_reports(make_report(metrics), baseline,
                                               BENCHMARK)
            assert regressed(comparisons) == [("fleet_pool_halfwarm", metric)]

    def test_within_tolerance_and_improvement_pass(self):
        baseline = make_report()
        for factor in (0.95, 0.0, -2.0):
            metrics = {name: {metric: worse(metric, value, factor)
                              for metric, value in values.items()}
                       for name, values in METRICS.items()}
            comparisons = perf.compare_reports(make_report(metrics), baseline,
                                               BENCHMARK)
            assert regressed(comparisons) == []
            assert len(comparisons) == len(WORKLOADS) * len(END_TO_END)

    def test_bounds_are_read_from_the_benchmark(self):
        metrics = copy.deepcopy(METRICS)
        metrics["grid_shared_optics"]["verdict_ms_p50"] *= 1.2
        current, baseline = make_report(metrics), make_report()
        assert regressed(perf.compare_reports(current, baseline,
                                              BENCHMARK)) == []
        tight = copy.deepcopy(BENCHMARK)
        for metric in tight["end_to_end"]:
            if metric["name"] == "verdict_ms_p50":
                metric["bound"] = 0.1
        assert regressed(perf.compare_reports(current, baseline, tight)) == \
            [("grid_shared_optics", "verdict_ms_p50")]

    def test_workload_without_baseline_fails(self):
        baseline = make_report({"live_sessions": METRICS["live_sessions"]})
        rows = perf.compare_reports(make_report(), baseline, BENCHMARK)
        assert [(c.workload, c.baseline, c.current) for c in rows
                if c.verdict == "MISSING"] == [
            ("fleet_pool_halfwarm", None, "present"),
            ("grid_shared_optics", None, "present")]

    def test_format_shows_the_allowed_change(self):
        metrics = copy.deepcopy(METRICS)
        metrics["live_sessions"]["peak_rss_mb"] *= 1.5
        table = perf.format_comparisons(
            perf.compare_reports(make_report(metrics), make_report(),
                                 BENCHMARK), BENCHMARK)
        rss = [line for line in table.splitlines()
               if "live_sessions" in line and "peak_rss_mb" in line]
        assert len(rss) == 1
        assert "+50.0%" in rss[0] and "+10%" in rss[0]
        assert "REGRESSED" in rss[0]
        assert any("scenarios_per_s" in line and "-25%" in line
                   for line in table.splitlines())

    def test_committed_baseline_is_valid_and_complete(self):
        """The committed baseline is a quick run of every workload, with
        every end-to-end metric (the CI gate depends on it)."""
        baseline = perf.load_report(REPO_ROOT / perf.DEFAULT_BASELINE_PATH)
        assert baseline["quick"] is True
        assert baseline["seconds"] == perf.QUICK_SECONDS
        assert baseline["runs"] == perf.RUNS
        assert sorted(baseline["workloads"]) == sorted(WORKLOADS)
        assert perf.compare_reports(baseline, None, BENCHMARK) == []
        for run in baseline["workloads"].values():
            assert all(run["metrics"][m]["value"] > 0.0 for m in END_TO_END)

    def test_default_baseline_found_from_any_cwd(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        resolved = perf.default_baseline_path()
        assert resolved.is_absolute() and resolved.exists()
        assert perf.load_report(resolved)["workloads"]

    def test_committed_bench_artifact_is_valid(self):
        """The root ``BENCH_perf.json`` is a full-length run."""
        report = perf.load_report(REPO_ROOT / "BENCH_perf.json")
        assert report["quick"] is False
        assert report["seconds"] == BENCHMARK["run_seconds"]
        assert report["runs"] == perf.RUNS
        assert sorted(report["workloads"]) == sorted(WORKLOADS)
        assert perf.compare_reports(report, None, BENCHMARK) == []
        for run in report["workloads"].values():
            assert sorted(run["metrics"]) == sorted(END_TO_END)


class TestThroughputMetrics:
    """``scenarios_per_s`` and ``ksamples_per_s`` are better higher."""

    def test_throughput_drop_regresses(self):
        for metric in ("scenarios_per_s", "ksamples_per_s"):
            metrics = copy.deepcopy(METRICS)
            metrics["grid_shared_optics"][metric] *= 0.7
            comparisons = perf.compare_reports(make_report(metrics),
                                               make_report(), BENCHMARK)
            assert regressed(comparisons) == [("grid_shared_optics", metric)]

    def test_throughput_gain_and_small_drop_pass(self):
        for scale in (1.5, 0.8, 1.0):
            metrics = copy.deepcopy(METRICS)
            metrics["grid_shared_optics"]["scenarios_per_s"] *= scale
            comparisons = perf.compare_reports(make_report(metrics),
                                               make_report(), BENCHMARK)
            assert regressed(comparisons) == []


class TestBenchCli:
    def test_writes_report_and_succeeds_without_baseline(self, perfbench,
                                                         tmp_path, capsys):
        code, out = bench(tmp_path, baseline=tmp_path / "missing.json")
        assert code == 0
        assert perf.load_report(out) == make_report()
        assert "skipping comparison" in capsys.readouterr().out

    def test_update_baseline_then_compare_passes(self, perfbench, tmp_path,
                                                 capsys):
        baseline = tmp_path / "baseline.json"
        code, _ = bench(tmp_path, "--update-baseline", baseline=baseline)
        assert code == 0
        assert perf.load_report(baseline) == make_report()
        code, _ = bench(tmp_path, baseline=baseline)
        assert code == 0
        table = capsys.readouterr().out
        assert table.count(" ok") == len(WORKLOADS) * len(END_TO_END)

    def test_regression_exits_nonzero(self, perfbench, tmp_path, capsys):
        """Each end-to-end metric, worse than its bound in its ``better``
        direction, fails the gate and is named."""
        for metric in END_TO_END:
            perfbench.metrics = copy.deepcopy(METRICS)
            value = METRICS["live_sessions"][metric]
            perfbench.metrics["live_sessions"][metric] = worse(metric, value,
                                                               1.1)
            perf.save_report(make_report(), tmp_path / "baseline.json")
            code, _ = bench(tmp_path)
            assert code == 1
            err = capsys.readouterr().err
            assert f"BENCH GATE FAILED: live_sessions:{metric} REGRESSED" \
                in err

    def test_mode_mismatch_skips_comparison(self, perfbench, tmp_path,
                                            capsys):
        metrics = {name: {m: v / 100.0 for m, v in values.items()}
                   for name, values in METRICS.items()}
        perf.save_report(make_report(metrics, quick=False),
                         tmp_path / "baseline.json")
        code, _ = bench(tmp_path)
        assert code == 0
        assert "full run and this one is not; skipping comparison" in \
            capsys.readouterr().out

    def test_incorrect_run_fails_the_gate(self, perfbench, tmp_path, capsys):
        perfbench.correct["fleet_pool_halfwarm"] = False
        perf.save_report(make_report(), tmp_path / "baseline.json")
        code, _ = bench(tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert "fleet_pool_halfwarm:correct FAILED" in err
        assert "fleet_pool_halfwarm:exit status FAILED" in err
        # Without a baseline to compare with, the run still fails.
        code, _ = bench(tmp_path, baseline=tmp_path / "missing.json")
        assert code == 1

    def test_nonzero_exit_fails_the_gate(self, perfbench, tmp_path, capsys):
        perfbench.raw["live_sessions"] = (2, "")
        perf.save_report(make_report(), tmp_path / "baseline.json")
        code, out = bench(tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert "live_sessions:exit status FAILED" in err
        assert "live_sessions:verdict_ms_p50 MISSING" in err
        assert perf.load_report(out)["workloads"]["live_sessions"][
            "returncode"] == 2

    def test_failed_run_does_not_update_baseline(self, perfbench, tmp_path):
        perfbench.correct["grid_shared_optics"] = False
        baseline = tmp_path / "baseline.json"
        code, _ = bench(tmp_path, "--update-baseline", baseline=baseline)
        assert code == 1
        assert not baseline.exists()

    def test_old_schema_baseline_exits_2(self, perfbench, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"schema": "repro.perf/1",
                                        "quick": True, "workloads": []}))
        code, _ = bench(tmp_path, baseline=baseline)
        assert code == 2
        assert "not a repro.perf/2 bench report" in capsys.readouterr().err


class TestMissingWorkloadGate:
    """A baseline workload absent from the run fails the gate: a dropped
    workload must never read as green."""

    def test_missing_workload_regresses(self):
        current = make_report({"live_sessions": METRICS["live_sessions"]})
        rows = perf.compare_reports(current, make_report(), BENCHMARK)
        assert [(c.workload, c.metric, c.baseline, c.current)
                for c in rows if c.verdict != "ok"] == [
            ("fleet_pool_halfwarm", "workload", "present", None),
            ("grid_shared_optics", "workload", "present", None)]

    def test_names_filter_limits_required_set(self):
        current = make_report({"live_sessions": METRICS["live_sessions"]})
        rows = perf.compare_reports(current, make_report(), BENCHMARK,
                                    names=["live_sessions"])
        assert regressed(rows) == []
        assert {c.workload for c in rows} == {"live_sessions"}

    def test_bench_cli_fails_on_missing_workload(self, perfbench, tmp_path,
                                                 capsys):
        metrics = {**METRICS, "retired_workload": METRICS["live_sessions"]}
        perf.save_report(make_report(metrics), tmp_path / "baseline.json")
        code, _ = bench(tmp_path)
        assert code == 1
        assert "retired_workload:workload MISSING" in capsys.readouterr().err
        # Naming a subset requires only that subset.
        code, _ = bench(tmp_path, "--workload", "grid_shared_optics")
        assert code == 0

    def test_missing_metric_fails(self):
        baseline = make_report()
        del baseline["workloads"]["live_sessions"]["metrics"]["setup_s"]
        current = make_report()
        del current["workloads"]["grid_shared_optics"]["metrics"][
            "peak_rss_mb"]
        rows = perf.compare_reports(current, baseline, BENCHMARK)
        assert sorted((c.workload, c.metric, c.verdict) for c in rows
                      if c.verdict != "ok") == [
            ("grid_shared_optics", "peak_rss_mb", "MISSING"),
            ("live_sessions", "setup_s", "MISSING")]
