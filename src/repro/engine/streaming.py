"""Programmatic streaming replay over scenario specs.

The engine-level core of ``repro-engine stream``: capture every spec's
pass (deduplicated — byte-identical specs share one deterministic
capture — and optionally fanned over a process pool), replay the passes
as concurrent live sessions through :class:`repro.stream.SessionMux`
in waves of bounded concurrency, and return structured per-session
outcomes plus cross-session fusion.  The CLI is a thin formatter over
:func:`run_stream`; notebooks and scripts can call it directly, the
same way :func:`repro.engine.run_grid` exposes batch sweeps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..obs.events import active_events
from ..obs.registry import active_registry
from .executor import build_decoder, capture_trace, inject_faults
from .spec import ScenarioSpec

if TYPE_CHECKING:  # repro.net pulls in networkx — keep it lazy, like
    from ..net.fusion import FusedObservation  # executor.py does, so
    from ..net.node import Detection  # `import repro.engine` stays light.

__all__ = ["SessionOutcome", "StreamRunResult", "run_stream"]


@dataclass
class SessionOutcome:
    """Everything one replay session produced.

    Attributes:
        session_id: the mux session name (``s000``, ``s001``, ...).
        spec: the resolved scenario the session replayed.
        spec_hash: the spec's content hash (cache identity).
        sent_bits: payload encoded on the tag.
        verdict_bits: what the session's flush verdict recovered.
        success: exact payload match.
        onset_latency_s / first_bit_latency_s: sample-clock event
            latencies (None when the event never fired).
        verdict_latency_s: verdict latency (None when the decode
            produced no payload — same contract as ``RunRecord``).
        events: the session's full decode-event stream.
        n_chunks / max_queue_depth / backpressure_waits /
        throughput_sps: operational stats from the mux.
        signal_level: the online normalizer's running level state
            (``min``/``max``/``span``; None when no finite sample
            arrived).
        detection: the session's pass report for the fusion layer
            (None when the session failed before flushing).
        error: why the session failed ('' while healthy) — a decoder
            exception the mux isolated, or a watchdog timeout.
        timed_out: the mux watchdog cancelled this session.
        decode_errors: decoder exceptions the mux contained.
        fault_events: injected-fault event counts for this session's
            feed (empty without a fault plan).
    """

    session_id: str
    spec: ScenarioSpec
    spec_hash: str
    sent_bits: str
    verdict_bits: str
    success: bool
    onset_latency_s: float | None
    first_bit_latency_s: float | None
    verdict_latency_s: float | None
    events: list = field(default_factory=list)
    n_chunks: int = 0
    n_samples: int = 0
    busy_s: float = 0.0
    max_queue_depth: int = 0
    backpressure_waits: int = 0
    throughput_sps: float = 0.0
    signal_level: dict[str, float] | None = None
    detection: Detection | None = None
    error: str = ""
    timed_out: bool = False
    decode_errors: int = 0
    fault_events: dict[str, int] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        """Whether the mux gave up on this session."""
        return bool(self.error)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dump (the ``--out`` JSONL row).

        Failure and fault keys appear only when set, so healthy
        fault-free rows keep the exact shape they had before the
        resilience layer existed.
        """
        row = {
            "session": self.session_id,
            "spec_hash": self.spec_hash,
            "sent_bits": self.sent_bits,
            "verdict_bits": self.verdict_bits,
            "success": self.success,
            "events": [e.to_dict() for e in self.events],
            "stats": {
                "n_chunks": self.n_chunks,
                "n_samples": self.n_samples,
                "busy_s": self.busy_s,
                "max_queue_depth": self.max_queue_depth,
                "backpressure_waits": self.backpressure_waits,
                "throughput_sps": self.throughput_sps,
            },
            "signal_level": self.signal_level,
        }
        if self.error:
            row["error"] = self.error
            row["timed_out"] = self.timed_out
            row["decode_errors"] = self.decode_errors
        if self.fault_events:
            row["fault_events"] = self.fault_events
        return row


@dataclass
class StreamRunResult:
    """Outcome of one :func:`run_stream` call.

    Attributes:
        outcomes: one entry per session, in session order.
        chunk_size: samples per ingest chunk used.
        feed_hz: per-session pacing used (0 = unpaced).
        sessions_per_wave: concurrency bound.
        n_distinct_captures: channel simulations actually run.
        samples_total: samples replayed across all sessions.
        wall_s: wall-clock time spent inside the session mux.
    """

    outcomes: list[SessionOutcome] = field(default_factory=list)
    chunk_size: int = 64
    feed_hz: float = 0.0
    sessions_per_wave: int = 8
    n_distinct_captures: int = 0
    samples_total: int = 0
    wall_s: float = 0.0

    @property
    def decode_rate(self) -> float:
        """Fraction of sessions whose verdict matched the payload."""
        if not self.outcomes:
            return 0.0
        return sum(o.success for o in self.outcomes) / len(self.outcomes)

    @property
    def failed_sessions(self) -> int:
        """Sessions the mux gave up on (poisoned or timed out)."""
        return sum(o.failed for o in self.outcomes)

    @property
    def backpressure_waits(self) -> int:
        return sum(o.backpressure_waits for o in self.outcomes)

    @property
    def throughput_sps(self) -> float:
        """Aggregate samples per wall-clock second."""
        return self.samples_total / self.wall_s if self.wall_s > 0 else 0.0

    def fusion_by_payload(self) -> "dict[str, FusedObservation]":
        """Cross-session verdicts, one confidence-weighted vote per
        distinct sent payload (sorted by payload).

        Failed sessions contributed no detection and simply do not
        vote; a payload observed only by failed sessions is absent.
        """
        from ..net.fusion import fuse_detections

        groups: dict[str, list] = {}
        for outcome in self.outcomes:
            if outcome.detection is not None:
                groups.setdefault(outcome.sent_bits, []).append(
                    outcome.detection)
        return {payload: fuse_detections(detections)
                for payload, detections in sorted(groups.items())}


def _capture_all(specs: Sequence[ScenarioSpec], workers: int,
                 progress: Callable[[str], None]) -> tuple[list, int]:
    """One trace per spec, simulating each distinct spec only once."""
    distinct: dict[str, ScenarioSpec] = {}
    hashes = []
    for spec in specs:
        spec_hash = spec.content_hash()
        hashes.append(spec_hash)
        distinct.setdefault(spec_hash, spec)
    progress(f"capturing {len(distinct)} distinct "
             f"pass{'es' if len(distinct) != 1 else ''} for "
             f"{len(specs)} sessions "
             f"({workers} worker{'s' if workers > 1 else ''})...")
    if workers > 1 and len(distinct) > 1:
        # Channel simulation dominates setup cost and every capture is
        # independent and deterministic — fan it out like BatchRunner.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
                max_workers=min(workers, len(distinct))) as pool:
            captured = list(pool.map(capture_trace, distinct.values()))
    else:
        captured = [capture_trace(spec) for spec in distinct.values()]
    trace_by_hash = dict(zip(distinct, captured))
    return ([(spec, spec_hash, trace_by_hash[spec_hash])
             for spec, spec_hash in zip(specs, hashes)], len(distinct))


def run_stream(specs: Sequence[ScenarioSpec], sessions: int = 8,
               chunk_size: int = 64, feed_hz: float = 0.0,
               queue_chunks: int = 8, workers: int = 1,
               watchdog_s: float | None = None,
               progress: Callable[[str], None] | None = None,
               ) -> StreamRunResult:
    """Replay scenarios as concurrent live decode sessions.

    Sessions run isolated: a poisoned decoder or a watchdog expiry
    fails its own session (surfaced on the outcome's ``error`` /
    ``timed_out``) while every sibling completes and fuses normally.
    Specs carrying a ``fault_plan`` have their captured pass and chunk
    transport corrupted deterministically before the replay.

    Args:
        specs: the scenarios; each becomes one session.  Resolved (and
            forced single-receiver) internally.
        sessions: concurrent sessions per wave, >= 1.
        chunk_size: samples per ingest chunk, >= 1.
        feed_hz: per-session pacing in chunks/s (0 = unpaced).
        queue_chunks: per-session backpressure bound.
        workers: worker processes for the capture phase.
        watchdog_s: optional per-session watchdog budget.
        progress: optional sink for human progress lines.
    """
    from ..stream.session import replay_traces

    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if sessions < 1:
        raise ValueError(f"sessions must be >= 1, got {sessions}")
    if feed_hz < 0.0:
        raise ValueError(f"feed_hz must be >= 0, got {feed_hz}")
    progress = progress or (lambda _line: None)
    resolved = [spec.replace(n_receivers=1).resolve() for spec in specs]
    feeds, n_distinct = _capture_all(resolved, workers, progress)

    result = StreamRunResult(chunk_size=chunk_size, feed_hz=feed_hz,
                             sessions_per_wave=sessions,
                             n_distinct_captures=n_distinct)
    for wave_start in range(0, len(feeds), sessions):
        wave = feeds[wave_start:wave_start + sessions]
        mux_feeds = {}
        chunk_overrides = {}
        wave_faults = {}
        for i, (spec, _, trace) in enumerate(wave):
            sid = f"s{wave_start + i:03d}"
            trace, chunks, wave_faults[sid] = inject_faults(spec, trace,
                                                            chunk_size)
            if chunks is not None:
                chunk_overrides[sid] = chunks
            mux_feeds[sid] = (trace, 2 * len(spec.bits),
                              build_decoder(spec))
        started = time.perf_counter()
        mux = replay_traces(mux_feeds, chunk_size=chunk_size,
                            feed_hz=feed_hz, queue_chunks=queue_chunks,
                            watchdog_s=watchdog_s, isolate_errors=True,
                            chunks_by_session=chunk_overrides or None)
        result.wall_s += time.perf_counter() - started
        registry = active_registry()
        log = active_events()
        for i, (spec, spec_hash, _) in enumerate(wave):
            session = mux.session(f"s{wave_start + i:03d}")
            fault_log = wave_faults[session.session_id]
            faults = fault_log.counts()
            if faults:
                if registry is not None:
                    fault_log.to_metrics(registry)
                if log is not None:
                    log.emit("fault_injected",
                             session=session.session_id,
                             counts=dict(sorted(faults.items())))
            verdict = session.verdict()
            stats = session.stats
            decoder = session.decoder
            norm = decoder.normalizer
            result.samples_total += stats.n_samples
            result.outcomes.append(SessionOutcome(
                session_id=session.session_id,
                spec=spec,
                spec_hash=spec_hash,
                sent_bits=spec.bits,
                # A failed session has no verdict event — it never
                # flushed; its outcome records why instead.
                verdict_bits=verdict.bits if verdict is not None else "",
                success=(verdict is not None
                         and verdict.bits == spec.bits),
                onset_latency_s=decoder.latency("onset"),
                first_bit_latency_s=decoder.latency("first_bit"),
                verdict_latency_s=decoder.verdict_latency_s,
                events=list(session.events),
                n_chunks=stats.n_chunks,
                n_samples=stats.n_samples,
                busy_s=stats.busy_s,
                max_queue_depth=stats.max_queue_depth,
                backpressure_waits=stats.backpressure_waits,
                throughput_sps=stats.throughput_sps,
                # NaN min means no finite sample ever arrived (a
                # constant stream still has known levels, zero span).
                signal_level=(None if math.isnan(norm.min) else {
                    "min": norm.min, "max": norm.max,
                    "span": norm.span}),
                detection=(session.detection()
                           if session.decoder.flushed else None),
                error=session.error,
                timed_out=stats.timed_out,
                decode_errors=stats.decode_errors,
                fault_events=faults,
            ))
    return result
