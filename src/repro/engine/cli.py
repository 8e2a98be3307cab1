"""``repro-engine`` — the engine's command-line entry point.

Subcommands::

    repro-engine run   --set source=sun --set detector=led --set cap=false \\
                       --set bits=00 --set receiver_height_m=0.25
    repro-engine sweep --set source=sun --set detector=led --set cap=false \\
                       --axis ground_lux=100,450,3700,6200 --axis seed=2,3,4 \\
                       --workers 4 --cache-dir .engine-cache --out runs.jsonl
    repro-engine sweep --scenario convoy,fog --count 200 --workers 8 \\
                       --group-by car
    repro-engine report runs.jsonl --group-by ground_lux
    repro-engine scenarios
    repro-engine stream --scenario convoy --count 32 --sessions 32 \\
                        --chunk 64
    repro-engine chaos --scenario convoy --count 24 \\
                       --plan '{"chunk_drop": 0.1, "node_dropout": 0.2}' \\
                       --intensity 0,0.5,1
    repro-engine sweep ... --telemetry telemetry/
    repro-engine metrics telemetry/

``chaos`` scales a fault mix across an intensity ladder and reruns the
same passes at every rung, printing the decode-rate degradation
frontier (see :mod:`repro.faults`).

``stream`` replays scenarios as concurrent live decode sessions
through :mod:`repro.stream` and prints per-session latency/throughput
tables plus cross-session fusion verdicts.

``run`` executes a single scenario and prints its record as JSON.
``sweep`` expands a grid (template + axes), a registered scenario
family (``--scenario``, composable with ``*``), or both — ``--axis``
fans each family scenario out further — through the batch runner.
``report`` re-reads a results file and summarizes it; records embed
their spec, so any spec field works for ``--group-by``.
``scenarios`` lists the registered scenario families.

``--telemetry DIR`` (on ``run``/``sweep``/``chaos``) activates the
:mod:`repro.obs` registry and event log for the command and writes
``events.jsonl`` + ``metrics.json`` + ``metrics.prom`` into DIR;
``metrics`` pretty-prints such a snapshot (pass the directory or the
``metrics.json`` file).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import Any, Iterator, Sequence

from ..exec.graph import profiled
from .records import RecordStage, RunRecord
from .report import (fusion_table, group_table, latency_table,
                     robustness_table, stage_table, summarize)
from .runner import FAILURE_STAGES, BatchAborted, BatchRunner
from .spec import GridSpec, ScenarioSpec, expand_grid

__all__ = ["main", "build_parser"]


_BOOL_FIELDS = {"cap", "include_noise"}
_INT_FIELDS = {"seed", "n_receivers", "stream_chunk"}
_STR_FIELDS = {"bits", "source", "detector", "pd_gain", "ground", "car",
               "motion", "decoder", "threshold_rule", "topology"}
_NONEABLE = {"seed", "car", "visibility_m", "start_position_m",
             "sample_rate_hz", "fault_plan"}
#: Structured fields taking inline JSON on the command line, e.g.
#: ``--set fault_plan='{"chunk_drop": 0.1}'`` (the spec coerces the
#: mapping to its dataclass on construction).
_JSON_FIELDS = {"fault_plan"}

#: Process exit code for batches that died outside the physics —
#: crashed/quarantined workers or a --max-failures abort — as opposed
#: to legitimate decode failures (1) and usage errors (2).
EXIT_EXECUTOR_ERROR = 3


def _coerce(name: str, text: str) -> Any:
    """Parse one CLI value into the spec field's native type.

    Raises:
        ValueError: on an unknown field name (listing the valid ones)
            or an unparsable value.
    """
    import dataclasses

    valid = tuple(f.name for f in dataclasses.fields(ScenarioSpec))
    if name not in valid:
        raise ValueError(
            f"unknown spec field {name!r}; valid fields: "
            f"{', '.join(valid)}")
    if name in _NONEABLE and text.lower() in ("none", "null", "auto"):
        return None
    if name in _JSON_FIELDS:
        try:
            value = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{name} expects inline JSON: {exc}") from exc
        if not isinstance(value, dict):
            raise ValueError(f"{name} expects a JSON object, got {text!r}")
        return value
    if name in _BOOL_FIELDS:
        lowered = text.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"{name} expects a boolean, got {text!r}")
    if name in _INT_FIELDS:
        return int(text)
    if name in _STR_FIELDS:
        return text
    return float(text)


def _parse_sets(pairs: Sequence[str]) -> dict[str, Any]:
    updates: dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set expects field=value, got {pair!r}")
        name, text = pair.split("=", 1)
        updates[name.strip()] = _coerce(name.strip(), text)
    return updates


def _parse_axis(pair: str) -> tuple[str, list[Any]]:
    """``name=v1,v2,...`` or ``name=lo:hi:n`` (inclusive linspace)."""
    if "=" not in pair:
        raise ValueError(f"--axis expects name=values, got {pair!r}")
    name, text = pair.split("=", 1)
    name = name.strip()
    if ":" in text:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
        if n < 1:
            raise ValueError(f"axis {name!r} needs >= 1 points, got {n}")
        if n == 1:
            values: list[Any] = [lo]
        else:
            step = (hi - lo) / (n - 1)
            values = [lo + step * i for i in range(n)]
        if name in _INT_FIELDS:
            values = [int(round(v)) for v in values]
        return name, values
    return name, [_coerce(name, item) for item in text.split(",") if item]


def _load_template(args: argparse.Namespace) -> ScenarioSpec:
    template = ScenarioSpec()
    if getattr(args, "spec", None):
        template = ScenarioSpec.from_dict(
            json.loads(Path(args.spec).read_text()))
    overrides = _parse_sets(args.set or [])
    return template.replace(**overrides) if overrides else template


def _make_runner(args: argparse.Namespace) -> BatchRunner:
    return BatchRunner(workers=getattr(args, "workers", 1) or 1,
                       cache=getattr(args, "cache_dir", None) or None,
                       backend=getattr(args, "backend", "process"),
                       scenario_timeout_s=getattr(args, "timeout", None),
                       max_failures=getattr(args, "max_failures", None))


def _write_records(records: Sequence[RunRecord], path: str | None) -> None:
    if path is None:
        return
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record.to_dict()) + "\n")


def _read_records(path: str) -> list[RunRecord]:
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(RunRecord.from_dict(json.loads(line)))
    return records


@contextlib.contextmanager
def _telemetry(args: argparse.Namespace) -> Iterator[tuple | None]:
    """Scoped telemetry for record-producing commands.

    With ``--telemetry DIR``: activates a fresh registry + event log
    (telemetry implies stage tracing, so stage histograms harvest the
    same traces ``--profile`` collects), yields ``(registry, events)``,
    and writes ``events.jsonl`` / ``metrics.json`` / ``metrics.prom``
    into DIR when the command body completes.  Without the flag this
    is a no-op yielding None — the zero-cost disabled path.
    """
    directory = getattr(args, "telemetry", None)
    if not directory:
        yield None
        return
    from ..obs import telemetry_session, write_telemetry

    with telemetry_session() as (registry, events):
        yield registry, events
        write_telemetry(directory, registry, events)
    print(f"telemetry written to {directory} "
          "(events.jsonl, metrics.json, metrics.prom)")


def _emit_stage_events(events, records: Sequence[RunRecord]) -> None:
    """Fold the records' stage timings into ``stage_timing`` events."""
    from .report import stage_stats

    stats = stage_stats(records)
    for stage, row in stats["stages"].items():
        events.emit("stage_timing", stage=stage,
                    total_s=round(row["total_s"], 6),
                    mean_s=round(row["mean_s"], 6),
                    n_profiled=stats["n_profiled"])


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load_template(args)
    with _telemetry(args) as telem:
        result = _make_runner(args).run([spec])
        if telem is not None:
            _emit_stage_events(telem[1], result.records)
    record = result.records[0]
    _write_records(result.records, args.out)
    print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
    if record.stage in FAILURE_STAGES:
        # The run died outside the physics (crashed worker, timeout,
        # simulation error) — that is never a "legitimate" failure, so
        # --allow-failure does not forgive it.
        return EXIT_EXECUTOR_ERROR
    return 0 if record.success or args.allow_failure else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.grid:
        grid = GridSpec.from_dict(json.loads(Path(args.grid).read_text()))
        template, axes = grid.template, grid.axes
        overrides = _parse_sets(args.set or [])
        if overrides:
            template = template.replace(**overrides)
    else:
        template = _load_template(args)
        axes = {}
    for pair in args.axis or []:
        name, values = _parse_axis(pair)
        axes[name] = values
    if args.scenario:
        from ..scenarios import expand_family

        bases = expand_family(args.scenario,
                              count=(100 if args.count is None
                                     else args.count),
                              seed=args.family_seed or 0,
                              template=template)
        specs = [spec for base in bases
                 for spec in expand_grid(base, axes)]
    else:
        if args.count is not None or args.family_seed is not None:
            raise ValueError(
                "--count/--family-seed only apply with --scenario")
        specs = expand_grid(template, axes)
    aborted: BatchAborted | None = None
    # --profile is tracing without --telemetry's artifacts: the runner
    # hands the switch to its pool tasks, so every record comes back
    # carrying a StageTrace.  Under --telemetry it changes nothing.
    profile_ctx = (profiled() if args.profile
                   else contextlib.nullcontext())
    with _telemetry(args) as telem, profile_ctx:
        runner = _make_runner(args)
        try:
            result = runner.run(specs)
        except BatchAborted as exc:
            aborted = exc
            result = exc.result
        if telem is not None:
            _emit_stage_events(telem[1], result.records)
    _write_records(result.records, args.out)
    print(result.stats.summary())
    print(summarize(result.records))
    if args.profile:
        print(stage_table(result.records))
    _print_group_tables(result.records, args.group_by or [])
    if args.out:
        print(f"records written to {args.out}")
    if aborted is not None:
        print(f"repro-engine: {aborted}", file=sys.stderr)
        return EXIT_EXECUTOR_ERROR
    if any(r.stage in FAILURE_STAGES for r in result.records):
        n = sum(r.stage in FAILURE_STAGES for r in result.records)
        print(f"repro-engine: {n} scenario(s) died outside the physics "
              "(executor error / simulation failure)", file=sys.stderr)
        return EXIT_EXECUTOR_ERROR
    return 0


def _print_group_tables(records: Sequence[RunRecord],
                        axes: Sequence[str]) -> None:
    """Per-axis decode tables, with fusion columns on networked runs
    and latency columns on streamed ones."""
    networked = any(r.networked for r in records)
    streamed = any(r.streamed for r in records)
    faulted = any(r.faulted or r.stage == RecordStage.EXECUTOR_ERROR
                  for r in records)
    for axis in axes:
        print(group_table(records, axis))
        if networked:
            print(fusion_table(records, axis))
        if streamed:
            print(latency_table(records, axis))
        if faulted:
            print(robustness_table(records, axis))
    # A networked sweep always gets the receiver-count fusion curve —
    # the Section 6 improvement — even without an explicit --group-by.
    if networked and "n_receivers" not in axes:
        print(fusion_table(records, "n_receivers"))


def _cmd_report(args: argparse.Namespace) -> int:
    records = _read_records(args.results)
    print(summarize(records))
    _print_group_tables(records, args.group_by or [])
    return 0


def _bench_baseline(path: Path, quick: bool) -> dict | None:
    """The baseline a run of this mode is compared with, if any."""
    from ..perf import load_report

    if not path.exists():
        print(f"no baseline at {path}; skipping comparison "
              "(create one with --update-baseline)")
        return None
    baseline = load_report(path)
    if baseline["quick"] != quick:
        mode = "quick" if baseline["quick"] else "full"
        print(f"baseline at {path} is a {mode} run and this one is not; "
              "skipping comparison")
        return None
    return baseline


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the ``BENCHMARK.json`` workloads and gate them (repro.perf)."""
    from .. import perf

    root = perf.checkout_root()
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    known = [w["name"] for w in benchmark["workloads"]]
    unknown = sorted(set(args.workload or ()) - set(known))
    if unknown:
        raise ValueError(f"unknown workload(s) {unknown}; BENCHMARK.json "
                         f"has {known}")
    report = perf.run_bench(root, benchmark, args.workload or known,
                            args.quick)
    print(f"bench report written to {perf.save_report(report, args.out)}")

    baseline_path = (Path(args.baseline) if args.baseline
                     else perf.default_baseline_path())
    baseline = (None if args.update_baseline
                else _bench_baseline(baseline_path, args.quick))
    comparisons = perf.compare_reports(report, baseline, benchmark,
                                       names=args.workload)
    if comparisons:
        print(perf.format_comparisons(comparisons, benchmark))
    failed = [c for c in comparisons if c.verdict != "ok"]
    if failed:
        print("BENCH GATE FAILED: " + ", ".join(
            f"{c.workload}:{c.metric} {c.verdict}" for c in failed),
            file=sys.stderr)
        return 1
    if args.update_baseline:
        perf.save_report(report, baseline_path)
        print(f"baseline updated at {baseline_path}")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    """Replay scenarios as concurrent live decode sessions.

    A thin formatter over :func:`repro.engine.run_stream` — spec
    assembly and argument resolution here, orchestration there.
    """
    from ..analysis.reporting import format_table
    from .report import format_ms as _ms
    from .streaming import run_stream

    if args.chunk is not None and args.chunk < 1:
        raise ValueError(f"--chunk must be >= 1, got {args.chunk}")
    if args.sessions < 1:
        raise ValueError(f"--sessions must be >= 1, got {args.sessions}")
    if args.count is not None and args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    if args.feed_hz is not None and args.feed_hz < 0.0:
        raise ValueError(f"--feed-hz must be >= 0, got {args.feed_hz}")
    count = args.count if args.count is not None else args.sessions
    template = _load_template(args)
    # Explicit flags win; otherwise chunking/pacing spelled on the spec
    # itself (--set stream_chunk/stream_feed_hz, or a --spec file) is
    # honoured.  The fields are then stripped from the template so a
    # networked family stacking n_receivers > 1 mid-expansion does not
    # trip the single-receiver streaming validation.
    chunk_size = (args.chunk if args.chunk is not None
                  else template.stream_chunk or 64)
    feed_hz = (args.feed_hz if args.feed_hz is not None
               else template.stream_feed_hz)
    template = template.replace(stream_chunk=0, stream_feed_hz=0.0)
    if args.scenario:
        from ..scenarios import expand_family

        specs = expand_family(args.scenario, count=count,
                              seed=args.family_seed or 0,
                              template=template)
    else:
        if args.family_seed is not None:
            raise ValueError("--family-seed only applies with --scenario")
        if template.seed is not None:
            # An explicit --set seed pins the pass: every session
            # replays that exact capture (a pure concurrency test).
            specs = [template] * count
        else:
            # Otherwise fan per-session noise seeds out so sessions
            # see independent passes.
            specs = expand_grid(template, {"seed": list(range(count))})

    result = run_stream(specs, sessions=args.sessions,
                        chunk_size=chunk_size, feed_hz=feed_hz,
                        queue_chunks=args.queue_chunks,
                        workers=args.workers or 1, progress=print)

    rows = [(o.session_id, o.sent_bits, o.verdict_bits or "-",
             "yes" if o.success else "no",
             _ms(o.onset_latency_s), _ms(o.first_bit_latency_s),
             _ms(o.verdict_latency_s), o.n_chunks, o.max_queue_depth,
             f"{o.throughput_sps / 1e3:.0f}") for o in result.outcomes]
    print(format_table(
        ["session", "sent", "verdict", "ok", "onset ms", "first-bit ms",
         "verdict ms", "chunks", "max queue", "ksamples/s"], rows))
    print(f"\n{len(result.outcomes)} sessions in waves of "
          f"{result.sessions_per_wave} (chunk {result.chunk_size}, feed "
          f"{'unpaced' if not result.feed_hz else f'{result.feed_hz:g} Hz'}): "
          f"decode rate {result.decode_rate:.1%}, "
          f"{result.samples_total} samples in {result.wall_s:.2f}s wall "
          f"({result.throughput_sps / 1e3:.0f} ksamples/s aggregate), "
          f"{result.backpressure_waits} backpressure waits")

    fused_rows = [(payload, fused.n_reports, fused.bits or "-",
                   "yes" if fused.bits == payload else "no",
                   f"{fused.support:.2f}", f"{fused.agreement:.2f}")
                  for payload, fused in result.fusion_by_payload().items()]
    print("\ncross-session fusion (confidence-weighted vote per payload)")
    print(format_table(
        ["payload", "sessions", "fused", "ok", "support", "agreement"],
        fused_rows))

    if args.out:
        with open(args.out, "w") as handle:
            for outcome in result.outcomes:
                handle.write(json.dumps(outcome.to_dict()) + "\n")
        print(f"session records written to {args.out}")
    return 0


#: Default fault mix for ``repro-engine chaos`` when no --plan is
#: given: mild chunk loss/duplication on the transport, burst noise and
#: dropouts on the capture, and occasional receiver dropout (the node
#: knob only bites on networked specs).
_DEFAULT_CHAOS_PLAN = {"chunk_drop": 0.05, "chunk_duplicate": 0.02,
                       "burst_rate_hz": 2.0, "dropout_rate_hz": 1.0,
                       "node_dropout": 0.1}


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Sweep decode success versus fault intensity.

    Scales one fault mix across an intensity ladder and runs the same
    underlying passes at every rung (fault plans never perturb the
    noise seed), printing the measured degradation frontier.
    """
    from ..faults.chaos import sweep_fault_intensity
    from ..faults.plan import FaultPlan

    if args.plan_file:
        plan_dict = json.loads(Path(args.plan_file).read_text())
    elif args.plan:
        plan_dict = json.loads(args.plan)
    else:
        plan_dict = dict(_DEFAULT_CHAOS_PLAN)
    if not isinstance(plan_dict, dict):
        raise ValueError("--plan expects a JSON object of FaultPlan "
                         f"fields, got {plan_dict!r}")
    plan = FaultPlan.from_dict(plan_dict)
    intensities = [float(item) for item in args.intensity.split(",")
                   if item.strip()]
    if not intensities:
        raise ValueError(f"--intensity expects a comma-separated list "
                         f"of scale factors, got {args.intensity!r}")
    count = args.count if args.count is not None else 24
    if count < 1:
        raise ValueError(f"--count must be >= 1, got {count}")
    template = _load_template(args)
    if args.scenario:
        from ..scenarios import expand_family

        specs = expand_family(args.scenario, count=count,
                              seed=args.family_seed or 0,
                              template=template)
    else:
        if args.family_seed is not None:
            raise ValueError("--family-seed only applies with --scenario")
        if template.seed is not None:
            specs = [template]
        else:
            specs = expand_grid(template, {"seed": list(range(count))})
    with _telemetry(args) as telem:
        runner = _make_runner(args)
        sweep = sweep_fault_intensity(specs, plan, intensities, runner)
        if telem is not None:
            _emit_stage_events(
                telem[1],
                [r for point in sweep.points for r in point.records])
    print(f"chaos sweep: {len(specs)} scenario(s) x {len(intensities)} "
          f"intensity rung(s)")
    print(f"fault mix: {plan.canonical_json()}")
    print(sweep.render())
    print(f"degradation first->last rung: {sweep.degradation():+.2f} "
          "decode rate")
    if args.out:
        records = [r for point in sweep.points for r in point.records]
        _write_records(records, args.out)
        print(f"records written to {args.out}")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from ..scenarios import describe_families

    print(describe_families())
    print("\ncompose families with ',' (or '*'), e.g. "
          "`repro-engine sweep --scenario convoy,fog --count 200`")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Pretty-print a telemetry snapshot written by ``--telemetry``."""
    from ..obs import format_metrics, load_snapshot

    path = Path(args.snapshot)
    if path.is_dir():
        path = path / "metrics.json"
    print(format_metrics(load_snapshot(path)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-engine",
        description="Batched scenario-execution runtime for the "
                    "passive-VLC reproduction.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, cache: bool = True,
                   out_help: str = "write records to this JSONL file",
                   ) -> None:
        p.add_argument("--spec", help="JSON file with template spec fields")
        p.add_argument("--set", action="append", metavar="FIELD=VALUE",
                       help="override one spec field (repeatable)")
        if cache:
            # The record cache only serves record-producing commands;
            # offering the flag where it would be a silent no-op
            # (stream captures traces, not records) misleads.
            p.add_argument("--cache-dir",
                           help="result cache directory (holds one "
                                "SQLite database, records.sqlite)")
            # Telemetry rides the same gate: record-producing commands
            # are the ones with metrics worth exporting.
            p.add_argument("--telemetry", metavar="DIR",
                           help="collect run telemetry (repro.obs) and "
                                "write events.jsonl + metrics.json + "
                                "metrics.prom into DIR; implies stage "
                                "tracing, records stay byte-identical")
        p.add_argument("--out", help=out_help)

    run_p = sub.add_parser("run", help="execute a single scenario")
    add_common(run_p)
    run_p.add_argument("--allow-failure", action="store_true",
                       help="exit 0 even when the decode fails "
                            "(executor errors still exit 3)")
    run_p.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-scenario wall-clock budget; a stuck "
                            "scenario is quarantined and recorded as "
                            "an executor error")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="expand and run a scenario grid")
    add_common(sweep_p)
    sweep_p.add_argument("--grid", help="JSON file with {template, axes}")
    sweep_p.add_argument("--axis", action="append",
                         metavar="FIELD=V1,V2|FIELD=LO:HI:N",
                         help="sweep one spec field (repeatable)")
    sweep_p.add_argument("--scenario", metavar="FAMILY[,FAMILY...]",
                         help="expand a registered scenario family "
                              "(compose with ',' — shell-safe — or "
                              "'*'; see the 'scenarios' subcommand)")
    sweep_p.add_argument("--count", type=int, default=None,
                         help="scenarios to draw from --scenario "
                              "(default: 100)")
    sweep_p.add_argument("--family-seed", type=int, default=None,
                         help="expansion seed for --scenario (default: 0)")
    sweep_p.add_argument("--backend", choices=BatchRunner.BACKENDS,
                         default="process",
                         help="execution backend: 'process' (scenario "
                              "by scenario) or 'tensor' (fused array "
                              "passes, one task per optics group)")
    sweep_p.add_argument("--workers", type=int, default=1,
                         help="worker processes (default: 1, serial)")
    sweep_p.add_argument("--group-by", action="append", metavar="FIELD",
                         help="print a decode-rate table per axis value")
    sweep_p.add_argument("--timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-scenario wall-clock budget; stuck "
                              "scenarios are quarantined and recorded "
                              "as executor errors instead of hanging "
                              "the batch")
    sweep_p.add_argument("--max-failures", type=int, default=None,
                         metavar="N",
                         help="fail fast: abort the batch (exit 3, "
                              "partial records kept) after N executor "
                              "errors / simulation failures")
    sweep_p.add_argument("--profile", action="store_true",
                         help="collect per-stage wall-time traces "
                              "(build/simulate/.../fuse) and print the "
                              "stage timing table; records stay "
                              "byte-identical")
    sweep_p.set_defaults(func=_cmd_sweep)

    report_p = sub.add_parser("report", help="summarize a results file")
    report_p.add_argument("results", help="JSONL file written by sweep/run")
    report_p.add_argument("--group-by", action="append", metavar="FIELD")
    report_p.set_defaults(func=_cmd_report)

    scen_p = sub.add_parser("scenarios",
                            help="list the registered scenario families")
    scen_p.set_defaults(func=_cmd_scenarios)

    metrics_p = sub.add_parser(
        "metrics",
        help="pretty-print a telemetry snapshot (repro.obs)")
    metrics_p.add_argument("snapshot",
                           help="metrics.json written by --telemetry "
                                "(or the telemetry directory itself)")
    metrics_p.set_defaults(func=_cmd_metrics)

    chaos_p = sub.add_parser(
        "chaos",
        help="sweep decode success vs fault intensity (repro.faults)")
    add_common(chaos_p,
               out_help="write every rung's records to this JSONL file")
    chaos_p.add_argument("--plan", metavar="JSON",
                         help="fault mix as inline JSON of FaultPlan "
                              "fields, e.g. '{\"chunk_drop\": 0.1}' "
                              "(default: a mild mixed-layer plan)")
    chaos_p.add_argument("--plan-file", metavar="PATH",
                         help="JSON file with the fault mix "
                              "(overrides --plan)")
    chaos_p.add_argument("--intensity", default="0,0.25,0.5,0.75,1",
                         metavar="I1,I2,...",
                         help="intensity ladder: scale factors applied "
                              "to the plan, run in order (default: "
                              "0,0.25,0.5,0.75,1; 0 = clean baseline)")
    chaos_p.add_argument("--scenario", metavar="FAMILY[,FAMILY...]",
                         help="draw scenarios from a registered family "
                              "(composable, like sweep)")
    chaos_p.add_argument("--count", type=int, default=None,
                         help="scenarios per rung (default: 24)")
    chaos_p.add_argument("--family-seed", type=int, default=None,
                         help="expansion seed for --scenario (default: 0)")
    chaos_p.add_argument("--workers", type=int, default=1,
                         help="worker processes (default: 1, serial)")
    chaos_p.add_argument("--timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-scenario wall-clock budget per rung")
    chaos_p.set_defaults(func=_cmd_chaos)

    stream_p = sub.add_parser(
        "stream",
        help="replay scenarios as concurrent live decode sessions "
             "(repro.stream)")
    add_common(stream_p, cache=False,
               out_help="write per-session event dumps to this JSONL "
                        "file (not RunRecords; repro-engine report "
                        "reads sweep/run output)")
    stream_p.add_argument("--scenario", metavar="FAMILY[,FAMILY...]",
                          help="draw session scenarios from a registered "
                               "family (composable, like sweep)")
    stream_p.add_argument("--count", type=int, default=None,
                          help="total sessions to replay "
                               "(default: --sessions)")
    stream_p.add_argument("--family-seed", type=int, default=None,
                          help="expansion seed for --scenario (default: 0)")
    stream_p.add_argument("--sessions", type=int, default=8,
                          help="concurrent sessions per wave (default: 8)")
    stream_p.add_argument("--chunk", type=int, default=None,
                          help="samples per ingest chunk (default: the "
                               "spec's stream_chunk, else 64)")
    stream_p.add_argument("--feed-hz", type=float, default=None,
                          help="per-session feed pacing in chunks/s; "
                               "0 = as fast as possible (default: the "
                               "spec's stream_feed_hz, itself 0)")
    stream_p.add_argument("--queue-chunks", type=int, default=8,
                          help="per-session backpressure bound "
                               "(default: 8 queued chunks)")
    stream_p.add_argument("--workers", type=int, default=1,
                          help="worker processes for the capture phase "
                               "(default: 1, serial)")
    stream_p.set_defaults(func=_cmd_stream)

    from ..perf import QUICK_SECONDS, RUNS

    bench_p = sub.add_parser(
        "bench",
        help="run the repository benchmark (BENCHMARK.json, perfbench/) "
             "and gate it against the committed baseline (repro.perf)",
        description=f"Runs each BENCHMARK.json workload {RUNS} times "
                    "through perfbench/run.py, keeps each metric's "
                    "median and gates it against the committed baseline "
                    "with the benchmark's bounds.")
    bench_p.add_argument("--quick", action="store_true",
                         help=f"{QUICK_SECONDS:g} s per run instead "
                              "of BENCHMARK.json's run_seconds (CI mode)")
    bench_p.add_argument("--workload", action="append", metavar="NAME",
                         help="run only this BENCHMARK.json workload "
                              "(repeatable)")
    bench_p.add_argument("--out", default="BENCH_perf.json",
                         help="where to write the runs "
                              "(default: BENCH_perf.json)")
    bench_p.add_argument("--baseline",
                         help="baseline report to compare against "
                              "(default: benchmarks/baselines/"
                              "BENCH_perf_baseline.json of the checkout)")
    bench_p.add_argument("--update-baseline", action="store_true",
                         help="write this report as the new baseline "
                              "instead of comparing (refused when a run "
                              "fails)")
    bench_p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"repro-engine: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
