"""The tracked performance suite: timed workloads with statistics.

Speed is a deliverable of this reproduction ("as fast as the hardware
allows"), so it is measured like one: a fixed set of named micro and
macro workloads covering the hot paths — DTW alignment, adaptive
decode, channel capture, engine batches — each timed with warmup and
repeats, summarized as median/stddev, and serialized to a
machine-readable ``BENCH_perf.json`` that CI diffs against a committed
baseline (see :mod:`repro.perf.baseline`).  Since the streaming
runtime landed, online decode throughput (``stream_decode``) is
tracked alongside the offline paths.

Every workload has a *quick* variant (smaller inputs, fewer repeats)
so the whole suite stays cheap enough to run on every pull request.
"""

from __future__ import annotations

import math
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

__all__ = ["Workload", "WorkloadTiming", "PerfReport",
           "default_workloads", "run_suite", "format_stage_medians"]

SCHEMA = "repro.perf/1"


@dataclass(frozen=True)
class Workload:
    """One named, repeatable timing target.

    Attributes:
        name: stable identifier (the key baselines are matched on).
        kind: ``"micro"`` (one hot function) or ``"macro"``
            (an end-to-end slice of the pipeline).
        description: what one repeat measures.
        setup: ``setup(quick) -> thunk``; everything done inside
            ``setup`` (building scenes, rendering traces) is excluded
            from the timing, only the returned thunk is timed.
        repeats: timed repetitions in full mode.
        quick_repeats: timed repetitions in quick mode.
        warmup: untimed runs before measurement (cache/JIT settling).
        metrics: optional ``metrics(quick, timing) -> extras`` called
            after measurement to derive throughput numbers
            (scenarios/s, ksamples/s/core, peak RSS) from the median;
            the dict lands in :attr:`WorkloadTiming.extras` and is
            baseline-gated alongside the median.
    """

    name: str
    kind: str
    description: str
    setup: Callable[[bool], Callable[[], Any]]
    repeats: int = 5
    quick_repeats: int = 3
    warmup: int = 1
    metrics: Callable[[bool, "WorkloadTiming"],
                      dict[str, float]] | None = None


@dataclass
class WorkloadTiming:
    """Measured repeat times for one workload.

    ``extras`` holds derived throughput metrics (``scenarios_per_s``,
    ``ksamples_per_s_core``, ``peak_rss_mb``, ...) produced by the
    workload's ``metrics`` hook; they round-trip through the JSON
    report and are compared against the baseline with
    direction-aware tolerances.
    """

    name: str
    kind: str
    description: str
    warmup: int
    times_s: list[float] = field(default_factory=list)
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def repeats(self) -> int:
        return len(self.times_s)

    @property
    def median_s(self) -> float:
        return float(np.median(self.times_s)) if self.times_s else math.nan

    @property
    def mean_s(self) -> float:
        return float(np.mean(self.times_s)) if self.times_s else math.nan

    @property
    def stddev_s(self) -> float:
        return float(np.std(self.times_s)) if self.times_s else math.nan

    @property
    def min_s(self) -> float:
        return float(np.min(self.times_s)) if self.times_s else math.nan

    @property
    def max_s(self) -> float:
        return float(np.max(self.times_s)) if self.times_s else math.nan

    @property
    def stage_medians_s(self) -> dict[str, float]:
        """Per-stage median seconds recorded by a ``--profile`` run.

        Derived from the ``stage_<name>_s`` extras written by
        :func:`_profile_stages`; empty for unprofiled runs and for
        workloads that never run a pipeline stage.
        """
        out: dict[str, float] = {}
        for key, value in self.extras.items():
            if key.startswith("stage_") and key.endswith("_s"):
                out[key[len("stage_"):-len("_s")]] = float(value)
        return dict(sorted(out.items()))

    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "kind": self.kind,
            "description": self.description,
            "warmup": self.warmup,
            "repeats": self.repeats,
            "times_s": list(self.times_s),
            "median_s": self.median_s,
            "mean_s": self.mean_s,
            "stddev_s": self.stddev_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
            "extras": {k: float(v) for k, v in sorted(self.extras.items())},
        }
        # First-class block so CI can diff stage-level regressions
        # without parsing extras key conventions.  Derived from the
        # extras, so ``from_dict`` round-trips it implicitly.
        stages = self.stage_medians_s
        if stages:
            data["stages"] = stages
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadTiming":
        return cls(name=data["name"], kind=data.get("kind", "micro"),
                   description=data.get("description", ""),
                   warmup=data.get("warmup", 0),
                   times_s=[float(v) for v in data["times_s"]],
                   extras={k: float(v)
                           for k, v in data.get("extras", {}).items()})


@dataclass
class PerfReport:
    """One full suite run: all workload timings plus environment."""

    results: list[WorkloadTiming] = field(default_factory=list)
    quick: bool = False
    meta: dict = field(default_factory=dict)

    def timing(self, name: str) -> WorkloadTiming | None:
        for result in self.results:
            if result.name == name:
                return result
        return None

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "quick": self.quick,
            "meta": dict(self.meta),
            "workloads": [r.to_dict() for r in self.results],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PerfReport":
        return cls(
            results=[WorkloadTiming.from_dict(w)
                     for w in data.get("workloads", [])],
            quick=bool(data.get("quick", False)),
            meta=dict(data.get("meta", {})),
        )


def _environment_meta() -> dict:
    from ..engine.runner import available_cpus

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
        "cpu_count": available_cpus(),
    }


# ----------------------------------------------------------------------
# The default workload set
# ----------------------------------------------------------------------

def _dtw_signals(quick: bool) -> tuple[np.ndarray, np.ndarray]:
    n = 600 if quick else 2000
    rng = np.random.default_rng(42)
    t = np.linspace(0.0, 30.0, n)
    a = np.sin(t) + 0.1 * rng.normal(size=n)
    b = np.sin(t * 1.05) + 0.1 * rng.normal(size=n)
    return a, b


def _setup_dtw(implementation: str) -> Callable[[bool], Callable[[], Any]]:
    def setup(quick: bool) -> Callable[[], Any]:
        from ..dsp.dtw import dtw

        a, b = _dtw_signals(quick)
        return lambda: dtw(a, b, implementation=implementation)

    return setup


def _bench_spec():
    from ..engine.spec import ScenarioSpec

    return ScenarioSpec(source="sun", detector="led", cap=False,
                        ground="tarmac", bits="00", symbol_width_m=0.1,
                        speed_mps=5.0, receiver_height_m=0.25,
                        start_position_m=-1.5, sample_rate_hz=2000.0,
                        ground_lux=450.0, seed=3)


def _setup_decode(quick: bool) -> Callable[[], Any]:
    from ..core.decoder import AdaptiveThresholdDecoder
    from ..engine.executor import build_simulator

    bits = "00" if quick else "1001"
    spec = _bench_spec().replace(bits=bits).resolve()
    trace = build_simulator(spec).capture_pass()
    decoder = AdaptiveThresholdDecoder()
    n_data_symbols = 2 * len(bits)
    return lambda: decoder.decode(trace, n_data_symbols=n_data_symbols)


def _setup_capture(quick: bool) -> Callable[[], Any]:
    from ..engine.executor import build_simulator

    spec = _bench_spec().replace(bits="00" if quick else "1001").resolve()
    sim = build_simulator(spec)
    return sim.capture_pass


def _setup_stream_decode(quick: bool) -> Callable[[], Any]:
    from ..engine.executor import build_simulator
    from ..stream.replay import replay_trace

    bits = "00" if quick else "1001"
    spec = _bench_spec().replace(bits=bits).resolve()
    trace = build_simulator(spec).capture_pass()
    n_data_symbols = 2 * len(bits)
    return lambda: replay_trace(trace, chunk_size=64,
                                n_data_symbols=n_data_symbols)


def _setup_engine_batch(quick: bool) -> Callable[[], Any]:
    from ..engine.runner import BatchRunner
    from ..engine.spec import expand_grid

    specs = expand_grid(_bench_spec(),
                        {"seed": list(range(2, 6 if quick else 14))})
    runner = BatchRunner(workers=1)
    return lambda: runner.run(specs)


def _batch_seeds(quick: bool, full: int, quick_n: int) -> list[int]:
    return list(range(2, 2 + (quick_n if quick else full)))


def _setup_tensor_batch(quick: bool) -> Callable[[], Any]:
    from ..engine.runner import BatchRunner
    from ..engine.spec import expand_grid

    specs = expand_grid(_bench_spec(), {"seed": _batch_seeds(quick, 12, 4)})
    runner = BatchRunner(workers=1, backend="tensor")
    return lambda: runner.run(specs)


def _setup_tensor_throughput(quick: bool) -> Callable[[], Any]:
    from ..engine.runner import BatchRunner
    from ..engine.spec import expand_grid

    specs = expand_grid(_bench_spec(), {"seed": _batch_seeds(quick, 64, 16)})
    runner = BatchRunner(workers=1, backend="tensor")
    return lambda: runner.run(specs)


def _peak_rss_mb() -> float | None:
    """Process peak RSS in MiB, or None where ``resource`` is absent."""
    try:
        import resource

        rss = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:  # pragma: no cover - non-POSIX platforms
        return None
    # ru_maxrss is KiB on Linux, bytes on macOS.
    if platform.system() == "Darwin":  # pragma: no cover
        rss /= 1024.0
    return rss / 1024.0


def _grid_metrics(full: int, quick_n: int) -> Callable[
        [bool, "WorkloadTiming"], dict[str, float]]:
    """Throughput extras for the fixed-grid batch workloads.

    All the grid workloads run ``_bench_spec`` variants, so one capture
    tells us the per-scenario sample count; everything else derives
    from the measured median on one core.
    """
    def metrics(quick: bool, timing: "WorkloadTiming") -> dict[str, float]:
        from ..engine.executor import build_simulator

        extras: dict[str, float] = {}
        n_scenarios = quick_n if quick else full
        median = timing.median_s
        if median > 0.0:
            trace = build_simulator(_bench_spec().resolve()).capture_pass()
            extras["scenarios_per_s"] = n_scenarios / median
            extras["ksamples_per_s_core"] = (
                n_scenarios * len(trace.samples) / median / 1e3)
        rss = _peak_rss_mb()
        if rss is not None:
            extras["peak_rss_mb"] = rss
        return extras

    return metrics


def default_workloads() -> list[Workload]:
    """The tracked workload set (stable names — baselines key on them)."""
    return [
        Workload(
            name="dtw_banded",
            kind="micro",
            description="Vectorized Sakoe-Chiba-banded DTW alignment of "
                        "two noisy 2000-sample traces (600 quick)",
            setup=_setup_dtw("vectorized"),
            quick_repeats=7,
        ),
        Workload(
            name="dtw_reference",
            kind="micro",
            description="Reference pure-Python DTW loop on the same "
                        "signals (the speedup denominator)",
            setup=_setup_dtw("reference"),
            repeats=3,
        ),
        Workload(
            name="decode_adaptive",
            kind="micro",
            description="Adaptive-threshold decode (incl. clock "
                        "refinement) of one captured outdoor packet",
            setup=_setup_decode,
            repeats=25,
            quick_repeats=15,
            warmup=3,
        ),
        Workload(
            name="capture_pass",
            kind="macro",
            description="Channel simulation of one full tag pass "
                        "through the receiver FoV at 2 kS/s",
            setup=_setup_capture,
            repeats=25,
            quick_repeats=15,
            warmup=3,
        ),
        Workload(
            name="stream_decode",
            kind="macro",
            description="Online streaming replay of one captured pass "
                        "in 64-sample chunks (incremental acquisition, "
                        "running normalizer, flush verdict)",
            setup=_setup_stream_decode,
            repeats=25,
            quick_repeats=15,
            warmup=3,
        ),
        Workload(
            name="engine_batch",
            kind="macro",
            description="Serial BatchRunner batch of 12 outdoor "
                        "scenarios (4 quick), no cache",
            setup=_setup_engine_batch,
            repeats=5,
            quick_repeats=7,
            metrics=_grid_metrics(12, 4),
        ),
        Workload(
            name="tensor_batch",
            kind="macro",
            description="Same 12-scenario grid (4 quick) through the "
                        "tensor backend: fused (N, T) array passes, "
                        "one process, float64",
            setup=_setup_tensor_batch,
            repeats=7,
            quick_repeats=7,
            metrics=_grid_metrics(12, 4),
        ),
        Workload(
            name="tensor_throughput",
            kind="macro",
            description="64-scenario grid (16 quick) through the "
                        "tensor backend — the amortized per-scenario "
                        "throughput the backend is built for",
            setup=_setup_tensor_throughput,
            repeats=5,
            quick_repeats=5,
            metrics=_grid_metrics(64, 16),
        ),
    ]


# ----------------------------------------------------------------------
# Suite runner
# ----------------------------------------------------------------------

def run_suite(quick: bool = False,
              names: Iterable[str] | None = None,
              workloads: Sequence[Workload] | None = None,
              repeats: int | None = None,
              clock: Callable[[], float] = time.perf_counter,
              profile: bool = False) -> PerfReport:
    """Time the (selected) workloads and return a :class:`PerfReport`.

    Args:
        quick: use each workload's quick input sizes and repeat counts.
        names: optional subset of workload names to run.
        workloads: override the default workload set (tests).
        repeats: override every workload's repeat count.
        clock: timing source (injectable for deterministic tests).
        profile: after the gated timing repeats, run a few *extra*
            profiled passes of each workload and record per-stage
            median wall time as ``stage_<name>_s`` extras.  The timed
            repeats themselves run unprofiled, and the stage extras
            are absent from committed baselines, so gated metrics are
            untouched.

    Raises:
        KeyError: when ``names`` contains an unknown workload.
    """
    available = list(workloads if workloads is not None
                     else default_workloads())
    if names is not None:
        wanted = list(names)
        by_name = {w.name: w for w in available}
        unknown = [n for n in wanted if n not in by_name]
        if unknown:
            raise KeyError(
                f"unknown workload(s) {unknown}; available: "
                f"{sorted(by_name)}")
        available = [by_name[n] for n in wanted]

    report = PerfReport(quick=quick, meta=_environment_meta())
    for workload in available:
        thunk = workload.setup(quick)
        n_repeats = repeats if repeats is not None else (
            workload.quick_repeats if quick else workload.repeats)
        for _ in range(workload.warmup):
            thunk()
        times: list[float] = []
        for _ in range(max(1, n_repeats)):
            started = clock()
            thunk()
            times.append(clock() - started)
        timing = WorkloadTiming(
            name=workload.name, kind=workload.kind,
            description=workload.description,
            warmup=workload.warmup, times_s=times)
        if workload.metrics is not None:
            timing.extras = {k: float(v) for k, v
                             in workload.metrics(quick, timing).items()}
        if profile:
            timing.extras.update(_profile_stages(thunk))
        report.results.append(timing)
    return report


def _profile_stages(thunk: Callable[[], Any],
                    passes: int = 3) -> dict[str, float]:
    """Per-stage median wall time over a few profiled thunk runs.

    Collects every :class:`~repro.exec.graph.StageTrace` the thunk's
    interior creates (single process only — forked workers keep
    theirs) and reports ``stage_<name>_s`` medians.  Workloads that
    never run a pipeline stage contribute nothing.
    """
    from ..exec.graph import StageTrace, collect_traces, profiled

    per_stage: dict[str, list[float]] = {}
    for _ in range(max(1, passes)):
        with profiled(), collect_traces() as traces:
            thunk()
        merged = StageTrace()
        for trace in traces:
            merged.merge(trace)
        for name, seconds in merged.timings_s.items():
            per_stage.setdefault(name, []).append(seconds)
    return {f"stage_{name}_s": float(np.median(values))
            for name, values in sorted(per_stage.items())}


def format_stage_medians(report: PerfReport) -> str:
    """Aligned per-workload stage-median table for ``--profile`` runs.

    Empty string when no workload recorded stage timings (run without
    ``--profile``, or none ran a pipeline stage).
    """
    from ..analysis.reporting import format_table

    rows = []
    for timing in report.results:
        stages = timing.stage_medians_s
        total = sum(stages.values())
        for name, seconds in stages.items():
            share = seconds / total if total > 0.0 else 0.0
            rows.append((timing.name, name, f"{seconds * 1e3:.2f}",
                         f"{share * 100.0:.1f}%"))
    if not rows:
        return ""
    return format_table(["workload", "stage", "median ms", "share"], rows)
