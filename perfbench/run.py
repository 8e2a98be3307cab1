"""The repository benchmark: three workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload grid_shared_optics --seed 1 \\
        --seconds 25 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``grid_shared_optics`` -- 256 specs of the Section 5 outdoor link,
  speed {3, 5} m/s x ground lux {450, 2000} x 64 seeded noise draws,
  through ``BatchRunner(backend="tensor")`` without a cache.
* ``fleet_pool_halfwarm`` -- 96 specs from the ``fleet_mix``,
  ``highway``, ``receiver_matrix`` and ``corridor`` families (one in
  eight with burst noise) through ``BatchRunner(workers=2)`` and a
  SQLite cache reset before every batch to hold every other spec.
* ``live_sessions`` -- 240 captured ``fleet_mix`` passes replayed in
  real time (2 kS/s, 64-sample chunks) through one ``SessionMux``,
  arriving at 10 passes/s: an open-loop capacity probe at 20-30% of
  one core.

``--trace 0`` prints the end-to-end metrics, measured with nothing
wrapped.  For the batch workloads a *batch* is the operation: the
verdict latency is the batch wall time and the rates follow from it.
For ``live_sessions`` a *chunk* is the operation: the verdict latency
runs from the last chunk's due time to the flush verdict, and the
rates are work per second of main-thread CPU, i.e. the sustainable
rate on one core.  Chunk latency, from the chunk's due time to the
return of ``push``, is printed but not gated: it waits in the mux's
queue, so it swings more than the host's speed does.

A shared host slows every process on it by a third or more for
minutes at a time.  Gated times and rates are therefore given at
*reference speed*: each is scaled by the time of a fixed reference
kernel (``common.reference_kernel``, no code of the program) run
between the timed operations in the same 2.5 s window, to the time on
a host where the kernel takes its nominal 2 ms (``common.HostSpeed``).
A change to the program moves them as it moves the measured times; a
slower host does not.  The figures as
measured, and the kernel's own time, are printed beside them, not
gated.  ``peak_rss_mb`` is the peak of this process plus its pool
workers over set-up and timing.

``setup_s`` runs from the start of this script, imports included, to
the first timed batch, with every set-up cold, at the reference speed
of kernel runs just before and just after it.  It is the median over
this process and two more that only set up (``--setup-only``), run
after the timed loop.  Inputs are generated here from ``--seed``; the
program only receives the specs and chunks.

``--trace 1`` prints the per-layer metrics instead: self time per batch
(per chunk for ``live_sessions``) of every layer, measured by wrapping
calls into each layer from these files (see ``spans.py``), with the
program's own stage traces switched on where it runs in-process.
Untraced batches interleave with the traced ones to give
``trace_overhead_frac``.  A report of every metric, its share of the
wall time and the end-to-end metric it should move is printed and
written to ``.perfbench/``.

Every run checks the program's outputs: batch records against serial
``execute_scenario`` records of the same specs, cache hits against the
seeded half, and every live verdict against the offline decode of the
same trace.  A mismatch, like any failed scenario or session, counts
in ``failed`` and exits with status 1.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from common import (SETUP_TICKS, HostSpeed, environment_meta,  # noqa: E402
                    forbidden_env)

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grid_shared_optics", "fleet_pool_halfwarm", "live_sessions")
#: Cold set-ups per run: this process and ``SETUP_REPEATS - 1`` more.
SETUP_REPEATS = 3

#: The end-to-end metric each per-layer metric should move.
MOVES = {
    "tensor.": "scenarios_per_s, verdict_ms_p50 on grid_shared_optics; "
               "nothing on fleet_pool_halfwarm",
    "stage.": "scenarios_per_s, verdict_ms_p50 on grid_shared_optics",
    "channel.": "scenarios_per_s on fleet_pool_halfwarm",
    "executor.": "scenarios_per_s on fleet_pool_halfwarm",
    "decoder.": "scenarios_per_s on fleet_pool_halfwarm; verdict_ms_p50 "
                "on live_sessions",
    "vehicles.": "scenarios_per_s on fleet_pool_halfwarm; verdict_ms_p50 "
                 "on live_sessions",
    "net.": "scenarios_per_s on fleet_pool_halfwarm",
    "faults.": "scenarios_per_s on fleet_pool_halfwarm",
    "cache.": "scenarios_per_s on fleet_pool_halfwarm; setup_s",
    "runner.": "scenarios_per_s on fleet_pool_halfwarm; setup_s",
    "stream.": "chunk_ms_p50 (not gated), scenarios_per_s, verdict_ms_p50 on "
               "live_sessions",
    "unattributed_ms": "all workloads: the time no layer owns",
    "trace_overhead_frac": "none: the cost of these spans",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up, cold, and print the set-up time")
    return parser.parse_args(argv)


def moves(metric: str) -> str:
    for prefix, text in MOVES.items():
        if metric.startswith(prefix):
            return text
    return ""


def more_setups(args: argparse.Namespace, count: int) -> list[float]:
    """``setup_s`` of ``count`` fresh processes that only set up."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(count):
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr[-500:]}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def trace_report(name: str, spec: dict, outcome: dict) -> dict:
    """Every per-layer metric with its share and what it should move.

    Layers a workload leaves idle read 0.
    """
    report = {"workload": name, "source": outcome["note"], "metrics": {}}
    for metric in spec["per_layer"]:
        entry = {"value": outcome["per_layer"].get(metric["name"], 0.0),
                 "unit": metric["unit"], "moves": moves(metric["name"])}
        if metric["name"] in outcome["shares"]:
            entry["share"] = outcome["shares"][metric["name"]]
        report["metrics"][metric["name"]] = entry
    return report


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    bad = forbidden_env(os.environ)
    if bad:
        return fail(f"refusing to run with {', '.join(bad)} set: each "
                    f"changes the program being measured")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return fail(f"no program to measure: {src}/repro is missing")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    sys.path.insert(0, str(src))
    import repro  # noqa: F401
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        return fail(f"imported repro from {repro.__file__}, not {src}")
    import batch_workloads
    import live_workload
    import_s = time.perf_counter() - _STARTED
    setup_speed = HostSpeed()
    setup_speed.tick(SETUP_TICKS)

    work_dir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            setup_s = (live_workload.setup_seconds(args.seed, setup_speed)
                       if args.workload == "live_sessions" else
                       batch_workloads.setup_seconds(
                           args.workload, args.seed, work_dir, setup_speed))
            print(json.dumps({
                "setup_s": setup_speed.scale(import_s + setup_s),
                "setup_s_as_measured": import_s + setup_s}))
            return 0
        if args.workload == "live_sessions":
            setup_s, outcome = live_workload.measure(
                args.seed, args.seconds, bool(args.trace), setup_speed)
        else:
            setup_s, outcome = batch_workloads.measure(
                args.workload, args.seed, args.seconds, bool(args.trace),
                work_dir, setup_speed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    measured = dict(outcome["end_to_end"])
    measured["peak_rss_mb"] = outcome["peak_rss_mb"]
    setups = [setup_speed.scale(import_s + setup_s)]
    if not args.trace:
        try:
            setups += more_setups(args, SETUP_REPEATS - 1)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError,
                KeyError, IndexError) as exc:
            return fail(str(exc))
    measured["setup_s"] = statistics.median(setups)
    correct = outcome["failed"] == 0

    print("meta " + json.dumps(environment_meta(ROOT), sort_keys=True))
    for metric in spec["end_to_end"]:
        print(f"{metric['name']:<28} {measured[metric['name']]:14.6f} "
              f"{metric['unit']}")
    print(f"{'setup_s_each':<28} "
          + " ".join(f"{s:.3f}" for s in setups) + " s  (not gated)")
    for key, (value, unit) in outcome["info"].items():
        print(f"{key:<28} {value:14.6f} {unit}  (not gated)")
    print(f"{'failed_frac':<28} "
          f"{outcome['failed'] / max(1, outcome['attempted']):14.6f} "
          f"fraction  ({outcome['failed']} of {outcome['attempted']})")

    if args.trace:
        report = trace_report(args.workload, spec, outcome)
        for metric, entry in report["metrics"].items():
            share = (f"{entry['share'] * 100:6.1f}%" if "share" in entry
                     else "       ")
            print(f"{metric:<28} {entry['value']:14.6f} "
                  f"{entry['unit']:<10} {share}  moves: {entry['moves']}")
        print(f"source: {report['source']}")
        path = (ROOT / ".perfbench"
                / f"trace-{args.workload}-seed{args.seed}.json")
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"trace report: {path.relative_to(ROOT)}")
        wanted, values = spec["per_layer"], report["metrics"]
    else:
        wanted, values = spec["end_to_end"], {
            name: {"value": value} for name, value in measured.items()}

    metrics = {m["name"]: {"value": float(values[m["name"]]["value"]),
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct,
                      "attempted": int(outcome["attempted"]),
                      "failed": int(outcome["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
