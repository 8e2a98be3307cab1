"""The batch workloads: ``grid_shared_optics`` and ``fleet_pool_halfwarm``.

Both time whole :meth:`BatchRunner.run` calls back to back (a closed
loop of one caller) and check every batch's records against a serial
``execute_scenario`` reference computed after the timed loop.  The
reference kernel runs after every untimed batch's return, and the gated
batch time is the median batch time at reference speed
(:class:`common.HostSpeed`).
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from common import (SETUP_TICKS, HostSpeed, peak_rss_mb, percentile,
                    stratified, tail_percentile)
from spans import LAYER_TARGETS, Tracer

from repro.engine.cache import SqliteResultCache
from repro.engine.executor import build_simulator, execute_scenario
from repro.engine.records import RunRecord
from repro.engine.runner import FAILURE_STAGES, BatchRunner
from repro.engine.spec import ScenarioSpec, expand_grid
from repro.exec.graph import collect_traces, profiled
from repro.faults.plan import FaultPlan
from repro.scenarios.library import expand_family
from repro.tensor.batch import clear_plan_cache, fast_path_eligible

#: Fewest timed batches per run, however slow the host.
MIN_BATCHES = 20
#: Reference kernel runs after each untraced batch.
REF_PER_BATCH = 1

#: Layers a pooled runner calls in the parent process.  Deeper layers
#: stay unwrapped there: the pool pickles ``execute_scenario`` by name,
#: which a wrapper in its place would break.
PARENT_TARGETS = tuple(t for t in LAYER_TARGETS
                       if t[3] in ("runner", "runner.pool_wait",
                                   "cache.get", "cache.put"))

#: The Section 5 outdoor link (sun over tarmac, RX-LED, 10 cm symbols).
OUTDOOR_LINK = ScenarioSpec(
    source="sun", detector="led", cap=False, ground="tarmac", bits="00",
    symbol_width_m=0.1, speed_mps=5.0, receiver_height_m=0.25,
    start_position_m=-1.5, sample_rate_hz=2000.0, ground_lux=450.0, seed=3)

GRID_NOISE_SEEDS = 64

#: ``(family, count)``: 96 specs, most of them with distinct optics.
FLEET_FAMILIES = (("fleet_mix", 32), ("highway", 32),
                  ("receiver_matrix", 16), ("corridor", 16))
#: Family draws are this many times larger than the pick (see
#: :func:`common.stratified`).
POOL_FACTOR = 4
#: Burst noise on one spec in eight of each half (see :func:`fleet_specs`).
BURST_NOISE = FaultPlan(burst_rate_hz=4.0, burst_length_s=0.02,
                        burst_gain=0.5)
FAULT_EVERY = 8


def grid_specs(seed: int) -> list[ScenarioSpec]:
    """4 optical groups x 64 seeded noise draws of the outdoor link."""
    rng = np.random.default_rng([seed, 1])
    noise = rng.choice(2**31 - 1, size=GRID_NOISE_SEEDS, replace=False)
    return expand_grid(OUTDOOR_LINK, {"speed_mps": [3.0, 5.0],
                                      "ground_lux": [450.0, 2000.0],
                                      "seed": [int(s) for s in noise]})


def capture_cost(spec: ScenarioSpec) -> float:
    """Samples one run of ``spec`` captures, over all its receivers."""
    sim = build_simulator(spec)
    _, duration = sim.pass_window()
    return duration * sim.config.sample_rate_hz * spec.n_receivers


def fleet_specs(seed: int) -> list[ScenarioSpec]:
    """96 family specs: cached half at even, executed half at odd indices.

    Each family's pick is ranked by capture cost and dealt alternately
    to the two halves, so both halves, and every seed, carry about the
    same work.  The executed half runs costliest first, which keeps the
    pool's two workers evenly loaded whatever the seed.
    """
    halves: tuple[list, list] = ([], [])
    for family, count in FLEET_FAMILIES:
        pool = expand_family(family, count=POOL_FACTOR * count, seed=seed)
        costed = [(capture_cost(spec), spec) for spec in pool]
        picked = sorted(stratified(costed, lambda c: c[0], count),
                        key=lambda c: c[0])
        halves[0].extend(picked[0::2])
        halves[1].extend(picked[1::2])
    cached, executed = (
        [spec.replace(fault_plan=BURST_NOISE) if k % FAULT_EVERY == 3
         else spec
         for k, (_, spec) in enumerate(sorted(half, key=lambda c: -c[0]))]
        for half in halves)
    return [spec for pair in zip(cached, executed) for spec in pair]


def digest(records: list[RunRecord]) -> str:
    """Hash of the records' canonical bytes, in order."""
    h = hashlib.sha256()
    for record in records:
        h.update(record.canonical_json().encode())
        h.update(b"\n")
    return h.hexdigest()


def batch_samples(specs: list[ScenarioSpec],
                  records: list[RunRecord]) -> int:
    return sum(r.n_samples * s.n_receivers for s, r in zip(specs, records))


def reset_half_warm(cache: SqliteResultCache, records: list[RunRecord],
                    seeded: list[int]) -> None:
    """Leave exactly the records at ``seeded`` indices in the cache."""
    cache.clear()
    for i in seeded:
        cache.put(records[i])


@dataclass
class BatchSetup:
    """One set-up batch workload, ready to time."""

    specs: list[ScenarioSpec]
    runner: BatchRunner
    #: In-process runner for the traced pass over worker-side layers.
    inprocess: BatchRunner | None = None
    cache: SqliteResultCache | None = None
    cache_dir: Path | None = None
    #: Indices the half-warm reset leaves cached, and their records.
    seeded: list[int] = field(default_factory=list)
    warm_records: list[RunRecord] = field(default_factory=list)

    def prepare(self) -> None:
        if self.cache is not None:
            reset_half_warm(self.cache, self.warm_records, self.seeded)

    def close(self) -> None:
        for runner in (self.runner, self.inprocess):
            if runner is not None:
                runner.close()
        if self.cache is not None:
            self.cache.close()
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


def setup_grid(seed: int, work_dir: Path) -> BatchSetup:
    # Group plans are memoised inside the program; start each set-up cold.
    clear_plan_cache()
    setup = BatchSetup(specs=grid_specs(seed),
                       runner=BatchRunner(backend="tensor"))
    for _ in range(2):
        setup.runner.run(setup.specs)
    return setup


def setup_fleet(seed: int, work_dir: Path) -> BatchSetup:
    specs = fleet_specs(seed)
    cache_dir = work_dir / f"cache-{time.perf_counter_ns()}"
    cache = SqliteResultCache(cache_dir)
    setup = BatchSetup(specs=specs,
                       runner=BatchRunner(workers=2, cache=cache),
                       inprocess=BatchRunner(workers=1, cache=cache),
                       cache=cache, cache_dir=cache_dir,
                       seeded=list(range(0, len(specs), 2)))
    # The cold run starts the pool and yields the records to seed with.
    setup.warm_records = setup.runner.run(specs).records
    setup.prepare()
    setup.runner.run(specs)
    return setup


SETUPS: dict[str, Callable[[int, Path], BatchSetup]] = {
    "grid_shared_optics": setup_grid,
    "fleet_pool_halfwarm": setup_fleet,
}


@dataclass
class BatchRun:
    """Timed batches of one kind plus what each one returned."""

    times_s: list[float] = field(default_factory=list)
    #: ``perf_counter`` start of each batch.
    starts_s: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    #: Whether the batch hit the cache exactly for the seeded half.
    hits_ok: list[bool] = field(default_factory=list)
    samples: list[int] = field(default_factory=list)
    failures: int = 0
    cache_hits: int = 0
    scenarios: int = 0
    #: ``(start, end)`` span-index slice of each traced batch.
    slices: list[tuple[int, int]] = field(default_factory=list)
    stage_s: dict[str, float] = field(default_factory=dict)

    def add(self, setup: BatchSetup, started: float, seconds: float,
            result) -> None:
        self.starts_s.append(started)
        self.times_s.append(seconds)
        self.digests.append(digest(result.records))
        self.samples.append(batch_samples(setup.specs, result.records))
        self.failures += sum(r.stage in FAILURE_STAGES
                             for r in result.records)
        self.cache_hits += result.stats.cache_hits
        self.scenarios += result.stats.total
        self.hits_ok.append(setup.cache is None
                            or result.stats.cache_hits == len(setup.seeded))

    def bad_batches(self, reference: str) -> int:
        """Batches that failed an output check."""
        return sum(d != reference or not ok
                   for d, ok in zip(self.digests, self.hits_ok))


def timed_batch(setup: BatchSetup, runner: BatchRunner, out: BatchRun,
                tracer: Tracer | None = None, targets=LAYER_TARGETS,
                stage_profile: bool = False) -> None:
    """One prepared, timed batch; traced when ``tracer`` is given."""
    setup.prepare()
    if tracer is None:
        started = time.perf_counter()
        result = runner.run(setup.specs)
        out.add(setup, started, time.perf_counter() - started, result)
        return
    with tracer.installed(targets), profiled(stage_profile), \
            collect_traces() as traces:
        first = len(tracer)
        started = time.perf_counter()
        result = runner.run(setup.specs)
        elapsed = time.perf_counter() - started
    out.add(setup, started, elapsed, result)
    out.slices.append((first, len(tracer)))
    for trace in traces:
        for stage, seconds in trace.timings_s.items():
            out.stage_s[stage] = out.stage_s.get(stage, 0.0) + seconds


def run_untraced(setup: BatchSetup, seconds: float,
                 speed: HostSpeed) -> BatchRun:
    out = BatchRun()
    deadline = time.perf_counter() + seconds
    while len(out.times_s) < MIN_BATCHES or time.perf_counter() < deadline:
        timed_batch(setup, setup.runner, out)
        speed.tick(REF_PER_BATCH)
    return out


def run_traced(setup: BatchSetup, seconds: float, tracer: Tracer,
               speed: HostSpeed) -> dict[str, BatchRun]:
    """Interleave untraced and traced batches of every kind.

    ``plain`` is the untraced baseline for the trace overhead;
    ``traced`` runs the measured runner with spans (and stage traces
    when it runs in-process); ``inprocess`` repeats a pooled batch on
    one process so spans inside the executor are collected too.
    """
    pooled = setup.inprocess is not None
    kinds = ["plain", "traced"] + (["inprocess"] if pooled else [])
    runs = {kind: BatchRun() for kind in kinds}
    deadline = time.perf_counter() + seconds
    while (min(len(r.times_s) for r in runs.values()) < MIN_BATCHES
           or time.perf_counter() < deadline):
        timed_batch(setup, setup.runner, runs["plain"])
        speed.tick(REF_PER_BATCH)
        timed_batch(setup, setup.runner, runs["traced"], tracer,
                    PARENT_TARGETS if pooled else LAYER_TARGETS,
                    stage_profile=not pooled)
        if pooled:
            timed_batch(setup, setup.inprocess, runs["inprocess"], tracer,
                        stage_profile=True)
    return runs


def setup_seconds(name: str, seed: int, work_dir: Path,
                  setup_speed: HostSpeed) -> float:
    """Seconds one cold set-up of ``name`` takes in this process."""
    started = time.perf_counter()
    setup = SETUPS[name](seed, work_dir)
    elapsed = time.perf_counter() - started
    setup_speed.tick(SETUP_TICKS)
    setup.close()
    return elapsed


def measure(name: str, seed: int, seconds: float, trace: bool,
            work_dir: Path, setup_speed: HostSpeed) -> tuple[float, dict]:
    """Set up once, cold, then time and check batches.

    Returns the set-up seconds and the outcome.  ``setup_speed`` gets
    reference runs right after set-up.  A batch that fails a check
    fails all its scenarios.
    """
    tracer = Tracer()
    speed = HostSpeed()
    started = time.perf_counter()
    setup = SETUPS[name](seed, work_dir)
    setup_s = time.perf_counter() - started
    setup_speed.tick(SETUP_TICKS)
    try:
        runs = (run_traced(setup, seconds, tracer, speed) if trace
                else {"plain": run_untraced(setup, seconds, speed)})
        # Read while the pool workers still run; before the reference.
        rss_mb = peak_rss_mb()
        # The serial reference is computed only after the timed loop.
        reference = digest([execute_scenario(spec) for spec in setup.specs])
    finally:
        setup.close()

    bad = sum(run.bad_batches(reference) for run in runs.values())
    plain = runs["plain"]
    tail = tail_percentile(len(plain.times_s))
    outcome = {
        "attempted": sum(run.scenarios for run in runs.values()),
        "failed": (sum(run.failures for run in runs.values())
                   + bad * len(setup.specs)),
        "end_to_end": end_to_end(setup, plain, speed),
        "peak_rss_mb": rss_mb,
        "info": {"batches": (float(len(plain.times_s)), "count"),
                 "batch_ms_p50_as_measured": (
                     statistics.median(plain.times_s) * 1e3, "ms"),
                 "reference_ms_p50": (speed.median_s() * 1e3, "ms"),
                 f"batch_ms_p{tail:g}": (
                     percentile(plain.times_s, tail) * 1e3, "ms")},
    }
    if trace:
        (outcome["per_layer"], outcome["shares"],
         outcome["note"]) = per_layer(setup, runs, tracer)
    return setup_s, outcome


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def end_to_end(setup: BatchSetup, run: BatchRun,
               speed: HostSpeed) -> dict[str, float]:
    """Batch metrics at reference speed; every batch does the same
    work, so the rates follow from the median batch time."""
    batch_s = speed.scaled_median(run.starts_s, run.times_s)
    return {
        "scenarios_per_s": len(setup.specs) / batch_s,
        "ksamples_per_s": statistics.median(run.samples) / batch_s / 1e3,
        # Every verdict of a batch arrives when the batch returns.
        "verdict_ms_p50": batch_s * 1e3,
    }


_STAGE_OWNERS = {"tensor.batch", "executor"}

_TIME_LAYERS = {
    "tensor.batch_ms": "tensor.batch",
    "channel.build_ms": "channel.build",
    "channel.capture_ms": "channel.capture",
    "executor.self_ms": "executor",
    "decoder.decode_ms": "decoder.decode",
    "vehicles.two_phase_ms": "vehicles.two_phase",
    "net.observe_ms": "net.observe",
    "net.fuse_ms": "net.fuse",
    "net.track_ms": "net.track",
    "faults.signal_ms": "faults.signal",
}


#: Measured on the measured runner's traced batches (the parent
#: process); every other layer on the in-process pass when it exists.
_PARENT_METRICS = {"cache.get_ms": "cache.get", "cache.put_ms": "cache.put",
                   "runner.self_ms": "runner",
                   "runner.pool_wait_ms": "runner.pool_wait"}

STAGES = ("build", "simulate", "inject_faults", "normalize", "acquire",
          "refine_clock", "decide", "fuse")


def per_layer(setup: BatchSetup, runs: dict[str, BatchRun], tracer: Tracer
              ) -> tuple[dict[str, float], dict[str, float], str]:
    """Per-batch layer metrics, each time's share of its batch wall
    time, and a note on where the numbers came from.

    Runner and cache layers come from the measured runner's traced
    batches.  When that runner uses a pool, the layers below it come
    from the interleaved in-process pass, because spans inside pool
    workers are not collected.
    """
    traced = runs["traced"]
    inner = runs.get("inprocess", traced)
    outer_layers = tracer.summary(traced.slices)
    inner_layers = tracer.summary(inner.slices)
    k_outer, k_inner = len(traced.slices), len(inner.slices)
    outer_wall = sum(traced.times_s) / k_outer * 1e3
    inner_wall = sum(inner.times_s) / k_inner * 1e3

    out: dict[str, float] = {}
    shares: dict[str, float] = {}
    for metric, layer in _TIME_LAYERS.items():
        found = inner_layers.get(layer)
        out[metric] = found.self_s / k_inner * 1e3 if found else 0.0
        shares[metric] = out[metric] / inner_wall
    for metric, layer in _PARENT_METRICS.items():
        found = outer_layers.get(layer)
        out[metric] = found.self_s / k_outer * 1e3 if found else 0.0
        shares[metric] = out[metric] / outer_wall
    decode = inner_layers.get("decoder.decode")
    out["decoder.preamble_miss_frac"] = (
        decode.errors.get("PreambleNotFoundError", 0) / decode.calls
        if decode else 0.0)
    out["cache.hit_frac"] = (traced.cache_hits / traced.scenarios
                             if setup.cache is not None else 0.0)

    tensor = inner_layers.get("tensor.batch")
    out["tensor.rows_per_group"] = out["tensor.fallback_frac"] = 0.0
    if tensor:
        eligible = [s.resolve() for s in setup.specs if fast_path_eligible(s)]
        groups = {s.optical_key() for s in eligible}
        out["tensor.rows_per_group"] = len(eligible) / max(1, len(groups))
        fallbacks = tracer.children_of("executor", "tensor.batch",
                                       inner.slices)
        out["tensor.fallback_frac"] = fallbacks / (tensor.calls
                                                   * len(setup.specs))

    for stage in STAGES:
        out[f"stage.{stage}_ms"] = (inner.stage_s.get(stage, 0.0)
                                    / k_inner * 1e3)
    # Executor time no stage trace owns: grouping, hashing, records.
    traced_ms = (tracer.outermost_s(_STAGE_OWNERS, inner.slices)
                 / k_inner * 1e3)
    out["stage.unattributed_ms"] = traced_ms - sum(
        out[f"stage.{stage}_ms"] for stage in STAGES)
    for stage in STAGES + ("unattributed",):
        shares[f"stage.{stage}_ms"] = out[f"stage.{stage}_ms"] / inner_wall

    owned_ms = sum(layer.self_s for layer in inner_layers.values())
    out["unattributed_ms"] = inner_wall - owned_ms / k_inner * 1e3
    shares["unattributed_ms"] = out["unattributed_ms"] / inner_wall
    out["trace_overhead_frac"] = (statistics.median(traced.times_s)
                                  / statistics.median(runs["plain"].times_s)
                                  - 1.0)
    note = ("times per batch; runner and cache layers from traced batches "
            "of the measured runner"
            + ("; executor and lower layers from an interleaved in-process "
               "(workers=1) pass over the same half-warm batch, because "
               "spans inside pool workers are not collected"
               if "inprocess" in runs else ""))
    return out, shares, note
