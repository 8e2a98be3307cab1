"""Aggregation and reporting over run records.

Sweeps produce flat record lists; consumers almost always want rates
grouped by one spec axis (decode rate vs noise floor, vs height, ...).
These helpers work on any iterable of :class:`RunRecord` — fresh from a
:class:`BatchRunner`, or re-read from a results file — because records
embed their originating spec.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Any, Iterable, Sequence

import numpy as np

from ..exec.graph import PIPELINE_STAGES
from .records import STAGES, RecordStage, RunRecord
from .spec import ScenarioSpec

#: Spec-field defaults, used to group records written before a field
#: existed (e.g. pre-receiver-array records have no ``n_receivers``
#: key; semantically they ran with the default, 1).
_SPEC_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ScenarioSpec)
                  if f.default is not dataclasses.MISSING}

__all__ = ["success_rate", "success_rate_by", "fused_rate",
           "fault_event_totals", "executor_error_count", "stage_counts",
           "mean_ber", "format_ms", "fusion_stats", "latency_stats",
           "robustness_stats", "stage_stats", "summarize",
           "group_table", "fusion_table", "latency_table",
           "robustness_table", "stage_table"]


def format_ms(value: float | None, null: str = "-") -> str:
    """Seconds as a milliseconds string, ``null`` for missing values."""
    return null if value is None else f"{value * 1e3:.1f}"


def success_rate(records: Sequence[RunRecord]) -> float:
    """Fraction of records that decoded the exact payload."""
    if not records:
        return 0.0
    return sum(r.success for r in records) / len(records)


def fused_rate(records: Sequence[RunRecord]) -> float:
    """Fraction of records whose fused verdict decoded the payload
    (the decode rate, for single-receiver records)."""
    if not records:
        return 0.0
    return sum(r.fused_success for r in records) / len(records)


def fault_event_totals(records: Iterable[RunRecord]) -> dict[str, int]:
    """Injected-fault event counts summed by kind, in kind order."""
    totals: Counter[str] = Counter()
    for record in records:
        totals.update(record.fault_events)
    return dict(sorted(totals.items()))


def executor_error_count(records: Iterable[RunRecord]) -> int:
    """Records the runner synthesized because the scenario never
    completed (a timeout, a crashed worker)."""
    return sum(r.stage == RecordStage.EXECUTOR_ERROR for r in records)


def _group_by_axis(records: Iterable[RunRecord],
                   axis: str) -> dict[Any, list[RunRecord]]:
    """Records grouped by one spec field, in first-seen order.

    A record whose (older) embedded spec predates the field falls back
    to the spec default, so mixed-vintage result files still group;
    a field the spec never had raises ``KeyError``.
    """
    groups: dict[Any, list[RunRecord]] = defaultdict(list)
    for record in records:
        if axis in record.spec:
            value = record.spec[axis]
        elif axis in _SPEC_DEFAULTS:
            value = _SPEC_DEFAULTS[axis]
        else:
            raise KeyError(f"record spec has no field {axis!r}")
        groups[value].append(record)
    return groups


def success_rate_by(records: Iterable[RunRecord],
                    axis: str) -> dict[Any, float]:
    """Decode rate grouped by one spec field, in first-seen order.

    Args:
        records: any run records (their specs must carry ``axis``).
        axis: spec field name to group on, e.g. ``"ground_lux"``.
    """
    return {value: success_rate(group)
            for value, group in _group_by_axis(records, axis).items()}


def stage_counts(records: Iterable[RunRecord]) -> dict[str, int]:
    """How many records ended in each pipeline stage."""
    counts = Counter(r.stage for r in records)
    return {stage: counts.get(stage, 0) for stage in STAGES
            if counts.get(stage, 0)}


def mean_ber(records: Sequence[RunRecord]) -> float:
    """Average bit error rate across records (1.0 = nothing decoded)."""
    if not records:
        return 0.0
    return sum(r.ber for r in records) / len(records)


def fusion_stats(records: Sequence[RunRecord]) -> dict[str, Any]:
    """Network-fusion aggregates over a record set.

    Returns:
        ``fused_rate`` (fused decode rate), ``best_node_rate`` (rate at
        which at least one single node decoded), ``mean_fusion_gain``
        (average per-pass fused-vs-best-single win) and
        ``mean_speed_error`` (mean relative tracked-speed error over
        records with an estimate; ``None`` when no record has one —
        no estimate is not the same as a perfect one).
    """
    if not records:
        return {"fused_rate": 0.0, "best_node_rate": 0.0,
                "mean_fusion_gain": 0.0, "mean_speed_error": None}
    n = len(records)
    speed_errors = [r.speed_error for r in records
                    if r.speed_error is not None]
    return {
        "fused_rate": fused_rate(records),
        "best_node_rate": sum(r.best_node_success for r in records) / n,
        "mean_fusion_gain": sum(r.fusion_gain for r in records) / n,
        "mean_speed_error": (sum(speed_errors) / len(speed_errors)
                             if speed_errors else None),
    }


def _percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile of a non-empty value list."""
    return float(np.percentile(values, p))


def latency_stats(records: Sequence[RunRecord]) -> dict[str, Any]:
    """Streaming-latency aggregates over the streamed records.

    Returns:
        ``n_streamed`` (records that ran through the online runtime),
        ``detect_rate`` (fraction whose incremental detector locked on
        and produced an onset event), and p50/p95 of each sample-clock
        latency over the records that have it (None when none do).
    """
    streamed = [r for r in records if r.streamed]
    out: dict[str, Any] = {
        "n_streamed": len(streamed),
        "detect_rate": 0.0,
    }
    if streamed:
        detected = [r for r in streamed if r.onset_latency_s is not None]
        out["detect_rate"] = len(detected) / len(streamed)
    for name in ("onset_latency_s", "first_bit_latency_s",
                 "verdict_latency_s"):
        values = [getattr(r, name) for r in streamed
                  if getattr(r, name) is not None]
        key = name.removesuffix("_latency_s")
        out[f"{key}_p50_s"] = (_percentile(values, 50.0) if values
                               else None)
        out[f"{key}_p95_s"] = (_percentile(values, 95.0) if values
                               else None)
    return out


def latency_table(records: Sequence[RunRecord], axis: str) -> str:
    """Streaming-latency columns grouped by one spec axis.

    One row per axis value: streamed count, detect rate, onset p50/p95
    and first-bit p50, in milliseconds ('-' where no record measured
    the quantity).
    """
    groups = _group_by_axis(records, axis)
    width = max((len(str(v)) for v in groups), default=1)
    lines = [f"stream latency by {axis}   "
             "(n | detect | onset p50/p95 ms | first-bit p50 ms)"]
    for value, group in groups.items():
        stats = latency_stats(group)
        lines.append(
            f"  {value!s:>{width}} | {stats['n_streamed']} | "
            f"{stats['detect_rate']:.2f} | "
            f"{format_ms(stats['onset_p50_s'])}"
            f"/{format_ms(stats['onset_p95_s'])} | "
            f"{format_ms(stats['first_bit_p50_s'])}")
    return "\n".join(lines)


def robustness_stats(records: Sequence[RunRecord]) -> dict[str, Any]:
    """Fault-injection and failure aggregates over a record set.

    Returns:
        ``n_faulted`` (records whose run logged at least one injected
        fault event), ``executor_errors`` (records that died outside
        the physics — crashed or quarantined workers), ``fault_events``
        (summed per-kind injected-fault counters), ``faulted_rate`` /
        ``clean_rate`` (decode rate over the faulted / un-faulted
        subsets; ``None`` when a subset is empty) and ``degradation``
        (clean minus faulted rate, ``None`` unless both sides exist).
    """
    faulted = [r for r in records if r.faulted]
    clean = [r for r in records if not r.faulted]
    faulted_rate = success_rate(faulted) if faulted else None
    clean_rate = success_rate(clean) if clean else None
    return {
        "n_faulted": len(faulted),
        "executor_errors": executor_error_count(records),
        "fault_events": fault_event_totals(records),
        "faulted_rate": faulted_rate,
        "clean_rate": clean_rate,
        "degradation": (clean_rate - faulted_rate
                        if faulted_rate is not None
                        and clean_rate is not None else None),
    }


def robustness_table(records: Sequence[RunRecord], axis: str) -> str:
    """Robustness columns grouped by one spec axis.

    One row per axis value: record count, how many logged injected
    faults, decode rate, executor-error count and total injected fault
    events.  Read decode rate down the axis (e.g. fault intensity) to
    see the degradation curve.
    """
    groups = _group_by_axis(records, axis)
    width = max((len(str(v)) for v in groups), default=1)
    lines = [f"robustness by {axis}   "
             "(n | faulted | decode | exec err | fault events)"]
    for value, group in groups.items():
        stats = robustness_stats(group)
        n_events = sum(stats["fault_events"].values())
        lines.append(
            f"  {value!s:>{width}} | {len(group)} | "
            f"{stats['n_faulted']} | {success_rate(group):.2f} | "
            f"{stats['executor_errors']} | {n_events}")
    return "\n".join(lines)


def stage_stats(records: Sequence[RunRecord]) -> dict[str, Any]:
    """Per-stage wall-time aggregates over the profiled records.

    Only records carrying a :class:`~repro.exec.graph.StageTrace`
    (a run with telemetry on: ``--profile``, ``--telemetry`` or
    ``REPRO_TELEMETRY=1``) contribute.  Stages appear in pipeline
    order.

    Returns:
        ``n_profiled`` (records with a trace), ``total_s`` (summed
        stage time across them), ``stages`` (per-stage ``total_s`` /
        ``mean_s`` per profiled record / ``share`` of the total) and
        ``counters`` (stage-trace counter totals, sorted by name; each
        record adds its :attr:`~repro.exec.StageTrace.shared_by` share,
        so a fused group counts once).
    """
    traces = [r.stage_trace for r in records if r.stage_trace is not None]
    timings: dict[str, float] = {}
    counters: dict[str, Fraction] = {}
    for trace in traces:
        for name, seconds in trace.timings_s.items():
            timings[name] = timings.get(name, 0.0) + seconds
        for name, value in trace.counters.items():
            counters[name] = (counters.get(name, Fraction(0))
                              + Fraction(value, trace.shared_by))
    total = sum(timings.values())
    stages = {
        name: {
            "total_s": timings[name],
            "mean_s": timings[name] / len(traces),
            "share": timings[name] / total if total > 0.0 else 0.0,
        }
        for name in PIPELINE_STAGES if name in timings
    }
    return {"n_profiled": len(traces), "total_s": total, "stages": stages,
            "counters": {name: int(n) if n.denominator == 1 else float(n)
                         for name, n in sorted(counters.items())}}


def stage_table(records: Sequence[RunRecord]) -> str:
    """ASCII per-stage timing table over the profiled records.

    Stages print in pipeline order with total / mean-per-record time
    and a share bar.  Without any profiled record the table degrades
    to a hint about how to collect traces.
    """
    stats = stage_stats(records)
    if not stats["n_profiled"]:
        return ("no stage traces in these records — rerun with "
                "--profile (or REPRO_TELEMETRY=1) to collect "
                "per-stage timings")
    lines = [f"stage timings over {stats['n_profiled']} profiled "
             "record(s)   (total ms | mean ms | share)"]
    width = max(len(name) for name in stats["stages"])
    for name, row in stats["stages"].items():
        bar = "#" * int(round(30 * row["share"]))
        lines.append(
            f"  {name:>{width}} | {row['total_s'] * 1e3:9.2f} | "
            f"{row['mean_s'] * 1e3:7.3f} | {bar} {row['share']:.2f}")
    if stats["counters"]:
        lines.append("  counters: " + ", ".join(
            f"{k}={v}" for k, v in stats["counters"].items()))
    return "\n".join(lines)


def summarize(records: Sequence[RunRecord]) -> str:
    """Multi-line human summary of a record set."""
    lines = [f"scenarios: {len(records)}"]
    if not records:
        return lines[0]
    lines.append(f"decoded exactly: {sum(r.success for r in records)} "
                 f"({100.0 * success_rate(records):.1f}%)")
    lines.append(f"mean BER: {mean_ber(records):.3f}")
    for stage, count in stage_counts(records).items():
        lines.append(f"  stage {stage}: {count}")
    networked = [r for r in records if r.networked]
    if networked:
        stats = fusion_stats(networked)
        err = stats["mean_speed_error"]
        lines.append(f"networked passes: {len(networked)} "
                     f"(fused {100.0 * stats['fused_rate']:.1f}% | "
                     f"best single node "
                     f"{100.0 * stats['best_node_rate']:.1f}% | "
                     f"fusion gain {stats['mean_fusion_gain']:+.3f} | "
                     f"speed err "
                     f"{'n/a' if err is None else f'{100.0 * err:.1f}%'})")
    streamed = [r for r in records if r.streamed]
    if streamed:
        stats = latency_stats(streamed)

        def ms(value: float | None) -> str:
            return ("n/a" if value is None
                    else f"{format_ms(value)} ms")

        lines.append(f"streamed passes: {len(streamed)} "
                     f"(detect {100.0 * stats['detect_rate']:.1f}% | "
                     f"onset p50 {ms(stats['onset_p50_s'])} | "
                     f"first bit p50 {ms(stats['first_bit_p50_s'])} | "
                     f"verdict p50 {ms(stats['verdict_p50_s'])})")
    rb = robustness_stats(records)
    if rb["n_faulted"] or rb["executor_errors"]:
        n_events = sum(rb["fault_events"].values())

        def pct(value: float | None) -> str:
            return "n/a" if value is None else f"{100.0 * value:.1f}%"

        lines.append(f"faulted passes: {rb['n_faulted']} "
                     f"(decode {pct(rb['faulted_rate'])} vs clean "
                     f"{pct(rb['clean_rate'])} | {n_events} fault "
                     f"events | {rb['executor_errors']} executor "
                     f"errors)")
    sim_time = sum(r.trace_duration_s for r in records)
    wall = sum(r.elapsed_s for r in records)
    lines.append(f"simulated {sim_time:.1f} s of channel time in "
                 f"{wall:.1f} s of compute")
    return "\n".join(lines)


def group_table(records: Sequence[RunRecord], axis: str) -> str:
    """ASCII decode-rate table grouped by one spec axis."""
    rates = success_rate_by(records, axis)
    width = max((len(str(v)) for v in rates), default=1)
    lines = [f"decode rate by {axis}"]
    for value, rate in rates.items():
        bar = "#" * int(round(30 * rate))
        lines.append(f"  {value!s:>{width}} | {bar} {rate:.2f}")
    return "\n".join(lines)


def fusion_table(records: Sequence[RunRecord],
                 axis: str = "n_receivers") -> str:
    """Fusion columns grouped by one spec axis.

    One row per axis value: fused decode rate, best-single-node decode
    rate, mean per-pass fusion gain (a vote-efficiency check, <= 0 by
    construction — see :class:`RunRecord`; the Section 6 *improvement*
    is the fused-rate column read across ``n_receivers``) and mean
    relative speed-estimate error ('-' when no pass produced one).
    """
    groups = _group_by_axis(records, axis)
    width = max((len(str(v)) for v in groups), default=1)
    lines = [f"fusion by {axis}   (fused | best node | gain | speed err)"]
    for value, group in groups.items():
        stats = fusion_stats(group)
        err = stats["mean_speed_error"]
        lines.append(
            f"  {value!s:>{width}} | {stats['fused_rate']:.2f} | "
            f"{stats['best_node_rate']:.2f} | "
            f"{stats['mean_fusion_gain']:+.3f} | "
            f"{'-' if err is None else f'{err:.3f}'}")
    return "\n".join(lines)
