"""Process-wide metrics registry with a zero-cost disabled path.

Telemetry is off by default and every instrumentation site guards on
``active_registry()`` returning ``None`` — a single module-global read
plus a ``None`` check, exactly like ``maybe_stage``.  When no registry
is active the hot paths never build label dicts, never take a lock and
never allocate.

Three metric kinds are supported, all label-aware and lock-protected:

* :class:`Counter` — monotonically increasing float.
* :class:`Gauge` — last-write-wins float with a ``set_max`` helper for
  high-water marks (queue depths).
* :class:`Histogram` — fixed upper-bound buckets; observations record a
  per-bucket count plus running sum/count, which is all the Prometheus
  text exposition needs.

``MetricsRegistry.snapshot()`` returns a plain, JSON-serialisable dict
with deterministic ordering so exporters and tests can diff it byte for
byte.  Activation is scoped (``telemetry()`` context manager), forced
(``set_registry``) or environmental (``REPRO_TELEMETRY=1`` builds one
process-default registry on first use, so subprocesses spawned with the
variable inherited collect into their own registry).  It is the one
switch: telemetry implies stage tracing (:func:`repro.exec.new_trace`).
"""
from __future__ import annotations

import os
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

__all__ = [
    "TELEMETRY_ENV",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active_registry",
    "set_registry",
    "telemetry_enabled",
    "telemetry",
]

TELEMETRY_ENV = "REPRO_TELEMETRY"
_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Default histogram upper bounds, in seconds — tuned for stage and
#: batch wall times that range from tens of microseconds to seconds.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelValue = str | int | float | bool
Labels = Mapping[str, LabelValue]
_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Labels | None) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Base for one labelled series; shares its registry's lock."""

    kind = "untyped"

    def __init__(self, name: str, labels: _LabelKey,
                 lock: threading.Lock) -> None:
        self.name = name
        self.labels = labels
        self._lock = lock

    @property
    def label_dict(self) -> dict[str, str]:
        return dict(self.labels)


class Counter(_Metric):
    kind = "counter"

    def __init__(self, name: str, labels: _LabelKey,
                 lock: threading.Lock) -> None:
        super().__init__(name, labels, lock)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self.value += amount


class Gauge(_Metric):
    kind = "gauge"

    def __init__(self, name: str, labels: _LabelKey,
                 lock: threading.Lock) -> None:
        super().__init__(name, labels, lock)
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount

    def set_max(self, value: float) -> None:
        """Keep the high-water mark (e.g. peak queue depth)."""
        with self._lock:
            if value > self.value:
                self.value = float(value)


class Histogram(_Metric):
    kind = "histogram"

    def __init__(self, name: str, labels: _LabelKey, lock: threading.Lock,
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, labels, lock)
        if not buckets or any(b <= a for a, b in zip(buckets, buckets[1:])):
            raise ValueError("histogram buckets must be strictly increasing")
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        # The first bucket whose bound is >= value; NaN compares false
        # with every bound, so it lands in +Inf.
        idx = (bisect_left(self.buckets, value) if value == value
               else len(self.buckets))
        with self._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1


class MetricsRegistry:
    """Get-or-create store of labelled counters, gauges and histograms.

    All mutation goes through one ``threading.Lock`` shared with every
    metric the registry hands out, so concurrent increments from worker
    threads never lose updates.  ``snapshot()`` is also taken under the
    lock and returns plain data only.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._kinds: dict[str, str] = {}
        self._series: dict[tuple[str, _LabelKey], _Metric] = {}

    def _get_or_create(self, cls: type, name: str, labels: Labels | None,
                       **kwargs: Any) -> Any:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._series.get(key)
            if metric is None:
                kind = self._kinds.get(name)
                if kind is not None and kind != cls.kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {kind}, "
                        f"cannot re-register as {cls.kind}")
                metric = cls(name, key[1], self._lock, **kwargs)
                self._kinds[name] = cls.kind
                self._series[key] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} is a {metric.kind}, not a {cls.kind}")
        return metric

    def counter(self, name: str, labels: Labels | None = None) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, labels: Labels | None = None) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, labels: Labels | None = None,
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, labels, buckets=buckets)

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict view of every series, deterministically ordered."""
        counters: list[dict[str, Any]] = []
        gauges: list[dict[str, Any]] = []
        histograms: list[dict[str, Any]] = []
        with self._lock:
            series = sorted(self._series.items())
        for (_name, _labels), metric in series:
            entry: dict[str, Any] = {
                "name": metric.name,
                "labels": metric.label_dict,
            }
            if isinstance(metric, Counter):
                entry["value"] = metric.value
                counters.append(entry)
            elif isinstance(metric, Gauge):
                entry["value"] = metric.value
                gauges.append(entry)
            elif isinstance(metric, Histogram):
                entry.update({
                    "buckets": list(metric.buckets),
                    "counts": list(metric.counts),
                    "sum": metric.sum,
                    "count": metric.count,
                })
                histograms.append(entry)
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}


# ---------------------------------------------------------------------------
# Activation — the one switch for telemetry and stage tracing.

_ACTIVE: MetricsRegistry | None = None
_ENV_DEFAULT: MetricsRegistry | None = None


def set_registry(registry: MetricsRegistry | None) -> None:
    """Force the process-wide registry on (an instance) or off (None)."""
    global _ACTIVE
    _ACTIVE = registry


def active_registry() -> MetricsRegistry | None:
    """The registry instrumentation should write to, or ``None``.

    Every instrumentation site calls this and bails on ``None`` — that
    single check is the entire disabled-path cost.  ``REPRO_TELEMETRY``
    is consulted at call time (not import time) so tests and forked
    workers behave predictably.
    """
    if _ACTIVE is not None:
        return _ACTIVE
    if os.environ.get(TELEMETRY_ENV, "").lower() in _TRUTHY:
        global _ENV_DEFAULT
        if _ENV_DEFAULT is None:
            _ENV_DEFAULT = MetricsRegistry()
        return _ENV_DEFAULT
    return None


def telemetry_enabled() -> bool:
    return active_registry() is not None


@contextmanager
def telemetry(
    registry: MetricsRegistry | None = None,
    enabled: bool = True,
) -> Iterator[MetricsRegistry | None]:
    """Scoped activation: instrumentation inside the block collects into
    ``registry`` (a fresh one by default) and the drivers take stage
    traces; ``enabled=False`` turns both off, whatever the environment
    says, and yields None.  The previous state is restored on exit.
    ``REPRO_TELEMETRY`` is set (or cleared) for the duration so forked
    processes follow; samples taken in pool workers stay there, except
    the stage traces their records bring back to the batch runner."""
    global _ACTIVE
    reg = None
    if enabled:
        reg = registry if registry is not None else MetricsRegistry()
    prev, prev_env = _ACTIVE, os.environ.pop(TELEMETRY_ENV, None)
    _ACTIVE = reg
    if enabled:
        os.environ[TELEMETRY_ENV] = "1"
    try:
        yield reg
    finally:
        _ACTIVE = prev
        if prev_env is None:
            os.environ.pop(TELEMETRY_ENV, None)
        else:
            os.environ[TELEMETRY_ENV] = prev_env
