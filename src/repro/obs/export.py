"""Exporters for :class:`~repro.obs.registry.MetricsRegistry` snapshots.

Two wire formats are supported:

* :func:`render_prometheus` — the Prometheus text exposition format
  (``# TYPE`` headers, ``name{label="v"} value`` samples, cumulative
  ``_bucket``/``_sum``/``_count`` series for histograms).
* :func:`render_json` — a canonical JSON document of the snapshot, with
  sorted keys so byte-level diffs are meaningful.

:func:`write_telemetry` bundles both plus the event log into a
directory (``events.jsonl`` + ``metrics.json`` + ``metrics.prom``),
which is what ``repro-engine ... --telemetry DIR`` emits, and
:func:`format_metrics` renders a snapshot as the human table behind
``repro-engine metrics FILE``.
"""
from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any, Mapping

from .events import EventLog
from .registry import MetricsRegistry

__all__ = [
    "render_prometheus",
    "render_json",
    "write_telemetry",
    "load_snapshot",
    "format_metrics",
    "publish_stage_trace",
]

SNAPSHOT_SCHEMA = "repro.obs/1"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_RE = re.compile(r"[^a-zA-Z0-9_]")


def _snap(source: MetricsRegistry | Mapping[str, Any]) -> dict[str, Any]:
    if isinstance(source, MetricsRegistry):
        return source.snapshot()
    return dict(source)


def _prom_name(name: str) -> str:
    name = _NAME_RE.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _prom_labels(labels: Mapping[str, str],
                 extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [(_LABEL_RE.sub("_", k), str(v))
             for k, v in sorted(labels.items())]
    pairs.extend(extra)
    if not pairs:
        return ""
    body = ",".join(
        '{}="{}"'.format(k, v.replace("\\", r"\\").replace('"', r"\""))
        for k, v in pairs)
    return "{" + body + "}"


def _fmt(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(source: MetricsRegistry | Mapping[str, Any]) -> str:
    """Prometheus text exposition of a registry (or raw snapshot)."""
    snap = _snap(source)
    lines: list[str] = []
    typed: set[str] = set()

    def type_line(name: str, kind: str) -> None:
        if name not in typed:
            lines.append(f"# TYPE {name} {kind}")
            typed.add(name)

    for entry in snap.get("counters", ()):
        name = _prom_name(entry["name"])
        type_line(name, "counter")
        lines.append(f"{name}{_prom_labels(entry['labels'])} "
                     f"{_fmt(entry['value'])}")
    for entry in snap.get("gauges", ()):
        name = _prom_name(entry["name"])
        type_line(name, "gauge")
        lines.append(f"{name}{_prom_labels(entry['labels'])} "
                     f"{_fmt(entry['value'])}")
    for entry in snap.get("histograms", ()):
        name = _prom_name(entry["name"])
        type_line(name, "histogram")
        labels = entry["labels"]
        cumulative = 0
        for bound, count in zip(entry["buckets"], entry["counts"]):
            cumulative += count
            le = (("le", _fmt(float(bound))),)
            lines.append(f"{name}_bucket{_prom_labels(labels, le)} "
                         f"{cumulative}")
        lines.append(f"{name}_bucket"
                     f"{_prom_labels(labels, (('le', '+Inf'),))} "
                     f"{entry['count']}")
        lines.append(f"{name}_sum{_prom_labels(labels)} "
                     f"{_fmt(entry['sum'])}")
        lines.append(f"{name}_count{_prom_labels(labels)} "
                     f"{entry['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_json(source: MetricsRegistry | Mapping[str, Any]) -> str:
    """Canonical JSON snapshot (sorted keys, schema-tagged)."""
    doc = {"schema": SNAPSHOT_SCHEMA, **_snap(source)}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def load_snapshot(path: str | Path) -> dict[str, Any]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or "counters" not in data:
        raise ValueError(f"{path}: not a repro.obs metrics snapshot")
    return data


def write_telemetry(directory: str | Path, registry: MetricsRegistry,
                    events: EventLog | None = None) -> dict[str, Path]:
    """Write ``events.jsonl`` + ``metrics.json`` + ``metrics.prom``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    snap = registry.snapshot()
    paths = {
        "metrics.json": directory / "metrics.json",
        "metrics.prom": directory / "metrics.prom",
        "events.jsonl": directory / "events.jsonl",
    }
    paths["metrics.json"].write_text(render_json(snap), encoding="utf-8")
    paths["metrics.prom"].write_text(render_prometheus(snap),
                                     encoding="utf-8")
    (events or EventLog()).write(paths["events.jsonl"])
    return paths


def format_metrics(source: MetricsRegistry | Mapping[str, Any]) -> str:
    """Human-readable table of a snapshot, for ``repro-engine metrics``."""
    snap = _snap(source)
    rows: list[tuple[str, str, str]] = []
    for entry in snap.get("counters", ()):
        rows.append((_series_id(entry), "counter", _fmt(entry["value"])))
    for entry in snap.get("gauges", ()):
        rows.append((_series_id(entry), "gauge", _fmt(entry["value"])))
    for entry in snap.get("histograms", ()):
        count = entry["count"]
        mean = entry["sum"] / count if count else 0.0
        summary = (f"count={count} sum={entry['sum']:.6g} "
                   f"mean={mean:.6g} p95<={_fmt(_quantile(entry, 0.95))}")
        rows.append((_series_id(entry), "histogram", summary))
    if not rows:
        return "(empty snapshot)"
    width_name = max(len(r[0]) for r in rows)
    width_kind = max(len(r[1]) for r in rows)
    lines = [f"{'series'.ljust(width_name)}  {'kind'.ljust(width_kind)}  "
             f"value"]
    lines.append(f"{'-' * width_name}  {'-' * width_kind}  {'-' * 5}")
    for name, kind, value in rows:
        lines.append(f"{name.ljust(width_name)}  {kind.ljust(width_kind)}  "
                     f"{value}")
    return "\n".join(lines)


def _series_id(entry: Mapping[str, Any]) -> str:
    labels = entry.get("labels") or {}
    if not labels:
        return str(entry["name"])
    body = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{entry['name']}{{{body}}}"


def _quantile(entry: Mapping[str, Any], q: float) -> float:
    """Upper bound of the bucket containing quantile ``q`` (+Inf-safe)."""
    total = entry["count"]
    if not total:
        return 0.0
    target = q * total
    cumulative = 0
    for bound, count in zip(entry["buckets"], entry["counts"]):
        cumulative += count
        if cumulative >= target:
            return float(bound)
    return math.inf


def publish_stage_trace(registry: MetricsRegistry, trace: Any,
                        driver: str, shared_by: int = 1,
                        series: dict | None = None) -> None:
    """Fold a :class:`repro.exec.StageTrace` into stage histograms.

    Reuses the timings the existing ``maybe_stage`` hooks already
    collected — no new timing code runs in any hot loop.  ``driver``
    labels which execution path produced the trace (``serial``,
    ``network``, ``tensor``, ``stream``).  When ``shared_by`` traces
    carry the same counters (the rows of a fused group), each adds its
    share of them.  A caller folding many traces passes one ``series``
    dict to all of them, so each (driver, stage) and (driver, event)
    series is looked up in the registry once.
    """
    if trace is None:
        return
    if series is None:
        series = {}
    for stage, seconds in trace.timings_s.items():
        key = ("exec_stage_seconds", stage, driver)
        histogram = series.get(key)
        if histogram is None:
            histogram = series[key] = registry.histogram(
                "exec_stage_seconds", {"stage": str(stage), "driver": driver})
        histogram.observe(seconds)
    for event, value in trace.counters.items():
        key = ("exec_stage_events_total", event, driver)
        counter = series.get(key)
        if counter is None:
            counter = series[key] = registry.counter(
                "exec_stage_events_total",
                {"event": str(event), "driver": driver})
        counter.inc(value / shared_by)
