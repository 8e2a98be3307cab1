"""The ``live_sessions`` workload: an open-loop capacity probe.

Passes arrive on a seeded schedule whatever the program does, and
every chunk is timed from when it was due: the moment its last sample
would have left a receiver sampling in real time.  A stalled ``push``
therefore makes every later chunk late instead of slowing the feed.

The offered load, 10 pass arrivals a second, is not a roadside traffic
figure: one receiver sees far fewer cars.  It was chosen to keep about
10 sessions live at once on one :class:`SessionMux` and 20-30% of one
core busy, so the mux's queueing and scheduling are loaded while a
host running at half speed still does not tip the open loop into a
growing backlog.

The reference kernel runs every ``REF_PERIOD_S`` inside the loop, and
the gated latency and rates are taken at reference speed
(:class:`common.HostSpeed`).  Rates are work per second of main-thread
CPU, the kernel's own CPU left out, which covers the decoder and the
mux's own serving cost.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import AsyncIterator, Callable

import numpy as np

from batch_workloads import POOL_FACTOR, capture_cost
from common import (SETUP_TICKS, HostSpeed, peak_rss_mb, percentile,
                    stratified)
from spans import Tracer

from repro.channel.trace import SignalTrace
from repro.core.errors import DecodeError, PreambleNotFoundError
from repro.engine.executor import build_decoder, capture_trace
from repro.engine.spec import ScenarioSpec
from repro.scenarios.library import expand_family
from repro.stream.decode import StreamDecoder
from repro.stream.session import SessionMux
from repro.tags.packet import Packet

CHUNK_SAMPLES = 64
#: Offered load of the capacity probe (see the module docstring).
ARRIVALS_PER_S = 10.0
#: Distinct passes, about one per arrival of a 25 s run.  A pass's
#: decode cost per sample varies eightfold and grows with its length,
#: so the rates of a small pool swing with the seed; this many passes
#: keep that swing within a few per cent.
POOL_PASSES = 240
QUEUE_CHUNKS = 8
#: Lead time between building the sessions and the first due chunk.
START_DELAY_S = 0.05
#: How often the loop samples its CPU clock and runs the reference
#: kernel, which blocks it for about 2 ms.
REF_PERIOD_S = 0.2


@dataclass
class Pass:
    """One captured pass the schedule replays (possibly many times)."""

    spec: ScenarioSpec
    trace: SignalTrace
    n_data_symbols: int

    @property
    def duration_s(self) -> float:
        return len(self.trace.samples) / self.trace.sample_rate_hz


def capture_passes(seed: int) -> list[Pass]:
    """A seeded ``fleet_mix`` pool, stratified by pass length."""
    pool = expand_family("fleet_mix", count=POOL_FACTOR * POOL_PASSES,
                         seed=seed)
    passes = []
    for spec in stratified(pool, capture_cost, POOL_PASSES):
        packet = Packet.from_bitstring(spec.bits,
                                       symbol_width_m=spec.symbol_width_m)
        passes.append(Pass(spec, capture_trace(spec),
                           2 * len(packet.data_bits)))
    return passes


def schedule(seed: int, seconds: float, passes: list[Pass]
             ) -> list[tuple[float, int]]:
    """``(arrival_s, pass index)`` pairs, sorted by arrival.

    Arrivals are a Poisson process conditioned on its count: the count
    is fixed by the rate and the arrival window, the times are uniform
    order statistics.  The window ends early enough for the longest
    pass to finish inside ``seconds``.  Passes are drawn by cycling
    seeded permutations of the pool, so no pass recurs before every
    other pass has run.
    """
    rng = np.random.default_rng([seed, 3])
    longest = max(p.duration_s for p in passes)
    window = max(1.0, seconds - longest - START_DELAY_S)
    count = max(1, round(ARRIVALS_PER_S * window))
    arrivals = np.sort(rng.uniform(0.0, window, count))
    order: list[int] = []
    while len(order) < count:
        order += [int(i) for i in rng.permutation(len(passes))]
    return [(float(a), i) for a, i in zip(arrivals, order)]


def offline_verdict(p: Pass) -> tuple[str, str]:
    """``(stage, bits)`` of the offline decode of the same trace."""
    try:
        result = build_decoder(p.spec).decode(
            p.trace, n_data_symbols=p.n_data_symbols)
    except PreambleNotFoundError:
        return "preamble_not_found", ""
    except DecodeError:
        return "decode_failed", ""
    return ("decoded" if result.success else "decode_failed",
            result.bit_string())


class TimedStreamDecoder(StreamDecoder):
    """A stream decoder that notes when each push and the flush ran."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.push_start: list[float] = []
        self.push_end: list[float] = []
        self.push_samples: list[int] = []
        self.flush_end: float | None = None

    def push(self, chunk):
        started = time.perf_counter()
        events = super().push(chunk)
        self.push_start.append(started)
        self.push_end.append(time.perf_counter())
        self.push_samples.append(len(chunk))
        return events

    def flush(self):
        events = super().flush()
        self.flush_end = time.perf_counter()
        return events


async def chunk_feed(samples: np.ndarray, arrival: float, fs: float,
                     dues: list[float], lags: list[float],
                     clock: Callable[[], float] = time.perf_counter,
                     sleep=asyncio.sleep) -> AsyncIterator[np.ndarray]:
    """Yield ``samples`` in chunks, each no earlier than its due time.

    ``dues`` gets each chunk's due time and ``lags`` how late the feed
    handed it over.  The feed never waits for the consumer, so a slow
    consumer sees chunks pile up, not arrive later.
    """
    n = len(samples)
    for start in range(0, n, CHUNK_SAMPLES):
        stop = min(start + CHUNK_SAMPLES, n)
        due = arrival + stop / fs
        delay = due - clock()
        if delay > 0.0:
            await sleep(delay)
        dues.append(due)
        lags.append(clock() - due)
        yield samples[start:stop]


@dataclass
class LiveRun:
    """What one open-loop phase measured."""

    sessions: int = 0
    failed: int = 0
    mismatched: int = 0
    chunks: int = 0
    samples: int = 0
    busy_s: float = 0.0
    wall_s: float = 0.0
    #: Main-thread CPU seconds of the run, the reference kernel's left out.
    cpu_s: float = 0.0
    #: Due time and latency of every chunk, in session order.
    chunk_due_s: list[float] = field(default_factory=list)
    chunk_latency_s: list[float] = field(default_factory=list)
    #: When each push returned, and how many samples it took.
    push_end_s: list[float] = field(default_factory=list)
    push_samples: list[int] = field(default_factory=list)
    #: ``(perf_counter, thread_time)`` every ``REF_PERIOD_S``, each
    #: but the last just before a reference kernel run.
    cpu_ticks: list[tuple[float, float]] = field(default_factory=list)
    speed: HostSpeed = field(default_factory=HostSpeed)
    queue_wait_s: list[float] = field(default_factory=list)
    gen_lag_s: list[float] = field(default_factory=list)
    verdict_due_s: list[float] = field(default_factory=list)
    verdict_latency_s: list[float] = field(default_factory=list)
    backpressure_waits: int = 0
    max_queue_depth: int = 0


def run_phase(passes: list[Pass], plan: list[tuple[float, int]],
              seconds: float) -> tuple[LiveRun, list]:
    """Replay ``plan`` in real time through one :class:`SessionMux`.

    Returns the measurements and each session's ``(stage, bits)``
    verdict (None for a failed session), to check once timing is over.
    """
    mux = SessionMux(queue_chunks=QUEUE_CHUNKS, watchdog_s=seconds + 30.0,
                     isolate_errors=True)
    decoders = []
    for j, (_, index) in enumerate(plan):
        p = passes[index]
        decoder = TimedStreamDecoder(
            p.trace.sample_rate_hz, p.trace.start_time_s,
            n_data_symbols=p.n_data_symbols, decoder=build_decoder(p.spec))
        mux.add_session(f"s{j}", decoder)
        decoders.append(decoder)
    dues: list[list[float]] = [[] for _ in plan]
    out = LiveRun(sessions=len(plan))

    async def main() -> float:
        base = time.perf_counter() + START_DELAY_S
        feeds = {}
        for j, (arrival, index) in enumerate(plan):
            trace = passes[index].trace
            feeds[f"s{j}"] = chunk_feed(trace.samples, base + arrival,
                                        trace.sample_rate_hz, dues[j],
                                        out.gen_lag_s)
        cpu = time.thread_time()
        sampler = asyncio.create_task(calibrate(out.cpu_ticks, out.speed))
        await mux.run(feeds)
        sampler.cancel()
        out.cpu_ticks.append((time.perf_counter(), time.thread_time()))
        out.cpu_s = time.thread_time() - cpu - sum(out.speed.cpu_times_s)
        return base

    base = asyncio.run(main())
    verdicts = []
    last = base
    for j, (session, decoder) in enumerate(zip(mux.sessions.values(),
                                               decoders)):
        stats = session.stats
        out.busy_s += stats.busy_s
        out.chunks += stats.n_chunks
        out.samples += stats.n_samples
        out.backpressure_waits += stats.backpressure_waits
        out.max_queue_depth = max(out.max_queue_depth, stats.max_queue_depth)
        verdict = session.verdict()
        complete = (not session.failed and verdict is not None
                    and len(decoder.push_end) == len(dues[j]))
        if not complete:
            out.failed += 1
            verdicts.append(None)
            continue
        verdicts.append((verdict.stage, verdict.bits))
        out.chunk_due_s += dues[j]
        out.chunk_latency_s += [e - d for e, d in zip(decoder.push_end,
                                                      dues[j])]
        out.push_end_s += decoder.push_end
        out.push_samples += decoder.push_samples
        out.queue_wait_s += [s - d for s, d in zip(decoder.push_start,
                                                   dues[j])]
        out.verdict_due_s.append(dues[j][-1])
        out.verdict_latency_s.append(decoder.flush_end - dues[j][-1])
        last = max(last, decoder.flush_end)
    out.wall_s = last - base
    return out, verdicts


async def calibrate(ticks: list[tuple[float, float]],
                    speed: HostSpeed) -> None:
    """Every ``REF_PERIOD_S``: note wall and thread CPU time, then run
    the reference kernel; until cancelled."""
    while True:
        ticks.append((time.perf_counter(), time.thread_time()))
        speed.tick()
        await asyncio.sleep(REF_PERIOD_S)


def reference_cpu_s(run: LiveRun) -> float:
    """Main-thread CPU seconds of the run at reference speed.

    Each window between CPU ticks is scaled by the reference kernel's
    speed around it, after the kernel's own CPU time is taken out.
    """
    ticks, speed = run.cpu_ticks, run.speed
    if len(ticks) < 2 or not speed.times_s:
        return run.cpu_s
    factors = speed.factors([wall for wall, _ in ticks[:-1]])
    total = 0.0
    for k, ((_, c0), (_, c1)) in enumerate(zip(ticks, ticks[1:])):
        ref = speed.cpu_times_s[k] if k < len(speed.cpu_times_s) else 0.0
        total += max(0.0, c1 - c0 - ref) * factors[k]
    return total


def check_verdicts(plan: list[tuple[float, int]], verdicts: list,
                   expected: list[tuple[str, str]]) -> int:
    """Sessions whose verdict differs from the offline decode."""
    return sum(1 for (_, index), verdict in zip(plan, verdicts)
               if verdict is not None and verdict != expected[index])


def setup_live(seed: int) -> list[Pass]:
    """Capture the pass pool and warm the stream path."""
    passes = capture_passes(seed)
    # Warm the stream path on a few passes, chunk by chunk.
    for p in passes[:8]:
        decoder = StreamDecoder(p.trace.sample_rate_hz, p.trace.start_time_s,
                                n_data_symbols=p.n_data_symbols,
                                decoder=build_decoder(p.spec))
        for start in range(0, len(p.trace.samples), CHUNK_SAMPLES):
            decoder.push(p.trace.samples[start:start + CHUNK_SAMPLES])
        decoder.flush()
    return passes


def setup_seconds(seed: int, setup_speed: HostSpeed) -> float:
    """Seconds one cold set-up takes in this process."""
    started = time.perf_counter()
    setup_live(seed)
    elapsed = time.perf_counter() - started
    setup_speed.tick(SETUP_TICKS)
    return elapsed


def end_to_end(run: LiveRun) -> dict[str, float]:
    """Metrics at reference speed."""
    cpu_s = reference_cpu_s(run)
    return {
        # Sustainable rates on one core: work per main-thread CPU second.
        "scenarios_per_s": run.sessions / cpu_s,
        "ksamples_per_s": run.samples / cpu_s / 1e3,
        "verdict_ms_p50": run.speed.scaled_median(
            run.verdict_due_s, run.verdict_latency_s) * 1e3,
    }


def info(run: LiveRun) -> dict[str, tuple[float, str]]:
    """Live figures printed but not gated (too noisy, or redundant),
    as measured.

    Chunk latency waits in the mux's queue, so it grows faster than the
    host slows: between two sets of ten runs of the same code its
    median moved by more than the gate's largest bound.
    """
    return {
        "chunk_ms_p50": (percentile(run.chunk_latency_s, 50.0) * 1e3, "ms"),
        "chunk_ms_p90": (percentile(run.chunk_latency_s, 90.0) * 1e3, "ms"),
        "chunk_ms_p99": (percentile(run.chunk_latency_s, 99.0) * 1e3, "ms"),
        "verdict_ms_p50_as_measured": (
            percentile(run.verdict_latency_s, 50.0) * 1e3, "ms"),
        "ksamples_per_cpu_s_as_measured": (run.samples / run.cpu_s / 1e3,
                                           "ksamples/s"),
        "reference_ms_p50": (run.speed.median_s() * 1e3, "ms"),
        "busy_frac": (run.busy_s / run.wall_s, "fraction"),
        "offered_ksamples_per_s": (run.samples / run.wall_s / 1e3,
                                   "ksamples/s"),
        "chunks": (float(run.chunks), "count"),
    }


_CHUNK_LAYERS = {
    "stream.acquire_ms": "stream.acquire",
    "stream.buffer_ms": "stream.buffer",
    "stream.normalize_ms": "stream.normalize",
    "decoder.decode_ms": "decoder.decode",
    "vehicles.two_phase_ms": "vehicles.two_phase",
}


def per_layer(plain: LiveRun, traced: LiveRun, tracer: Tracer
              ) -> tuple[dict[str, float], dict[str, float]]:
    """Per-chunk layer metrics from the traced phase, and each time's
    share of the main thread's CPU time."""
    layers = tracer.summary()
    chunks = max(1, traced.chunks)

    def self_ms(name: str) -> float:
        layer = layers.get(name)
        return layer.self_s / chunks * 1e3 if layer else 0.0

    out = {metric: self_ms(layer) for metric, layer in _CHUNK_LAYERS.items()}
    out["stream.push_self_ms"] = self_ms("stream.push")
    out["stream.flush_self_ms"] = self_ms("stream.flush")
    out["stream.push_ms_p50"] = percentile(
        tracer.durations("stream.push"), 50.0) * 1e3
    out["stream.flush_ms_p50"] = percentile(
        tracer.durations("stream.flush"), 50.0) * 1e3
    checks = layers.get("stream.acquire")
    out["stream.acquire_checks"] = (checks.calls if checks else 0) / chunks
    decode = layers.get("decoder.decode")
    out["decoder.preamble_miss_frac"] = (
        decode.errors.get("PreambleNotFoundError", 0) / decode.calls
        if decode and decode.calls else 0.0)
    out["stream.queue_wait_ms_p50"] = percentile(traced.queue_wait_s,
                                                 50.0) * 1e3
    out["stream.backpressure_waits"] = float(traced.backpressure_waits)
    out["stream.max_queue_depth"] = float(traced.max_queue_depth)
    out["stream.gen_lag_ms_p99"] = percentile(traced.gen_lag_s, 99.0) * 1e3
    owned_s = sum(layer.self_s for layer in layers.values())
    # Loop, queue and feed work is CPU time no layer span owns.
    out["unattributed_ms"] = (traced.cpu_s - owned_s) / chunks * 1e3
    out["trace_overhead_frac"] = ((traced.busy_s / traced.wall_s)
                                  / (plain.busy_s / plain.wall_s) - 1.0)
    cpu_ms = traced.cpu_s / chunks * 1e3
    shares = {metric: out[metric] / cpu_ms for metric in
              list(_CHUNK_LAYERS) + ["stream.push_self_ms",
                                     "stream.flush_self_ms",
                                     "unattributed_ms"]}
    return out, shares


def measure(seed: int, seconds: float, trace: bool,
            setup_speed: HostSpeed) -> tuple[float, dict]:
    """Set up once, cold, then replay the schedule.

    Returns the set-up seconds and the outcome.  ``setup_speed`` gets
    reference runs right after set-up.  The traced run splits
    ``seconds`` between an untraced and a traced phase of the same
    schedule.
    """
    started = time.perf_counter()
    passes = setup_live(seed)
    setup_s = time.perf_counter() - started
    setup_speed.tick(SETUP_TICKS)
    # Spans on the thread's CPU clock, like the ``cpu_s`` they share:
    # a stall of the host inside a span then cannot outgrow the total.
    tracer = Tracer(clock=time.thread_time)
    phase_s = seconds / 2.0 if trace else seconds
    plan = schedule(seed, phase_s, passes)
    plain, verdicts = run_phase(passes, plan, phase_s)
    traced = None
    if trace:
        with tracer.installed():
            traced, traced_verdicts = run_phase(passes, plan, phase_s)
    rss_mb = peak_rss_mb()
    # The offline reference is computed only after the timed phases.
    expected = [offline_verdict(p) for p in passes]
    plain.mismatched = check_verdicts(plan, verdicts, expected)
    runs = [plain]
    if traced is not None:
        traced.mismatched = check_verdicts(plan, traced_verdicts, expected)
        runs.append(traced)
    outcome = {
        "attempted": sum(r.sessions for r in runs),
        "failed": sum(r.failed + r.mismatched for r in runs),
        "end_to_end": end_to_end(plain),
        "peak_rss_mb": rss_mb,
        "info": info(plain),
    }
    if traced is not None:
        outcome["per_layer"], outcome["shares"] = per_layer(plain, traced,
                                                            tracer)
        outcome["note"] = ("main-thread CPU times per chunk and shares of "
                           "that thread's CPU time; "
                           "traced phase replays the untraced phase's "
                           "schedule")
    return setup_s, outcome
