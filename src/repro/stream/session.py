"""Concurrent multi-receiver streaming: the asyncio session layer.

A deployment is not one receiver — it is dozens of "tiny boxes"
streaming RSS simultaneously.  :class:`SessionMux` multiplexes many
:class:`~repro.stream.StreamDecoder` sessions on one event loop:

* each session owns a bounded :class:`asyncio.Queue` of chunks, so a
  producer that outruns its decoder **blocks on the queue**
  (backpressure) instead of growing memory without bound;
* a per-session worker drains the queue, feeds the decoder, and yields
  between chunks so no session starves the others;
* finished sessions turn their verdicts into
  :class:`repro.net.Detection` reports, and :meth:`SessionMux.fused`
  reuses the networked-receiver fusion layer verbatim for cross-session
  verdicts.

Wall-clock numbers (per-session processing time, throughput) live in
:class:`SessionStats`; everything decode-related stays on the sample
clock and is exactly what the bare decoder would have produced — the
mux adds concurrency, never changes answers.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, AsyncIterable, Iterable, Mapping

import numpy as np

from ..exec.graph import new_trace
from ..net.fusion import FusedObservation, fuse_detections, group_by_pass
from ..net.node import Detection, detection_from_decode
from ..obs.events import active_events
from ..obs.export import publish_stage_trace
from ..obs.registry import MetricsRegistry, active_registry
from .decode import DecodeEvent, StreamDecoder

__all__ = ["SessionStats", "StreamSession", "SessionMux", "replay_traces"]


@dataclass
class SessionStats:
    """Operational accounting for one streaming session.

    Attributes:
        n_chunks: chunks ingested.
        n_samples: samples ingested.
        busy_s: wall-clock time spent inside the decoder.
        max_queue_depth: deepest the ingest queue ever got.
        backpressure_waits: feeds that found the queue full and had to
            wait — nonzero means the producer outran the decoder.
        decode_errors: exceptions the decoder raised while this session
            ran (a poisoned session keeps counting while its remaining
            chunks are drained and discarded).
        timed_out: the mux watchdog cancelled this session.
    """

    n_chunks: int = 0
    n_samples: int = 0
    busy_s: float = 0.0
    max_queue_depth: int = 0
    backpressure_waits: int = 0
    decode_errors: int = 0
    timed_out: bool = False

    @property
    def throughput_sps(self) -> float:
        """Samples decoded per second of decoder busy time."""
        return self.n_samples / self.busy_s if self.busy_s > 0.0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-safe)."""
        return {
            "n_chunks": self.n_chunks,
            "n_samples": self.n_samples,
            "busy_s": self.busy_s,
            "max_queue_depth": self.max_queue_depth,
            "backpressure_waits": self.backpressure_waits,
            "decode_errors": self.decode_errors,
            "timed_out": self.timed_out,
            "throughput_sps": self.throughput_sps,
        }

    def to_metrics(self, registry: MetricsRegistry) -> None:
        """Fold one session's accounting into ``registry``.

        The common stats shape: a session-outcome counter, the
        samples ingested, backpressure/error counters, the queue-depth
        high-water gauge and one busy-time histogram sample.  Chunks
        are counted on the decoder's stage trace instead
        (``exec_stage_events_total{event="stream_chunks"}``).  One-shot
        per session.
        """
        if self.timed_out:
            outcome = "timed_out"
        elif self.decode_errors:
            outcome = "poisoned"
        else:
            outcome = "ok"
        registry.counter("stream_sessions_total",
                         {"outcome": outcome}).inc()
        registry.counter("stream_samples_total").inc(self.n_samples)
        registry.counter("stream_backpressure_waits_total").inc(
            self.backpressure_waits)
        registry.counter("stream_decode_errors_total").inc(
            self.decode_errors)
        registry.gauge("stream_queue_depth_peak").set_max(
            self.max_queue_depth)
        registry.histogram("stream_session_busy_seconds").observe(
            self.busy_s)


class StreamSession:
    """One receiver's live stream inside the mux.

    Attributes:
        session_id: unique name.
        decoder: the online decode state machine.
        position_m: the receiver's position along the track (feeds the
            fusion layer's pass-grouping).
        stats: operational counters.
        events: every event the decoder emitted, in order.
        error: first failure this session hit ('' while healthy) — a
            decoder exception (poison) or a watchdog timeout.
        exception: the original exception object behind ``error``, when
            one exists (watchdog timeouts have none).
    """

    def __init__(self, session_id: str, decoder: StreamDecoder,
                 position_m: float = 0.0, queue_chunks: int = 8) -> None:
        if not session_id:
            raise ValueError("session_id must be non-empty")
        if queue_chunks < 1:
            raise ValueError(
                f"queue_chunks must be >= 1, got {queue_chunks}")
        self.session_id = session_id
        self.decoder = decoder
        decoder.session_id = session_id
        self.position_m = float(position_m)
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_chunks)
        self.stats = SessionStats()
        self.done = asyncio.Event()
        self.error = ""
        self.exception: BaseException | None = None

    @property
    def failed(self) -> bool:
        """Whether this session was poisoned or timed out."""
        return bool(self.error)

    @property
    def events(self) -> list[DecodeEvent]:
        return self.decoder.events

    def verdict(self) -> DecodeEvent | None:
        """The session's verdict event (None before flush)."""
        return self.decoder.event("verdict")

    def detection(self) -> Detection:
        """This session's pass report, in the fusion layer's currency
        (the mapping :meth:`repro.net.ReceiverNode.observe` uses).

        Raises:
            RuntimeError: before the stream has been flushed.
        """
        if self.decoder.final_trace is None:
            raise RuntimeError(
                f"session {self.session_id!r} not flushed yet")
        return detection_from_decode(self.session_id, self.position_m,
                                     self.decoder.final_trace,
                                     self.decoder.result)


class SessionMux:
    """Multiplexes many concurrent streaming sessions with backpressure.

    Typical use::

        mux = SessionMux()
        for sid, trace in feeds.items():
            mux.add_session(sid, StreamDecoder(trace.sample_rate_hz,
                                               trace.start_time_s))
        asyncio.run(mux.run({sid: chunks(trace) for ...}))
        print(mux.fused())

    Attributes:
        queue_chunks: per-session ingest queue bound (backpressure
            threshold) for sessions created via :meth:`add_session`.
        watchdog_s: per-session wall-clock budget.  A session whose
            producer/worker pair does not finish inside it — a stuck
            producer, a stream that never closes — is cancelled and
            marked ``timed_out``; siblings are untouched.  ``None``
            (default) disables the watchdog.
        isolate_errors: poison-session containment.  A decoder that
            raises is always isolated while the mux runs — its session
            is marked failed, its remaining chunks are drained and
            discarded (so its producer can never deadlock on a full
            queue), and every sibling runs to completion.  With
            ``isolate_errors=False`` (default) the first poison
            exception is re-raised once all sessions finish — the
            classic single-replay contract; ``True`` keeps it on
            ``session.error``/``session.exception`` for the caller to
            inspect.  Watchdog timeouts are the mux's own verdict and
            are never re-raised.
        registry: the active telemetry registry at construction
            (None while telemetry is off).  Each completed session
            folds its :class:`SessionStats` in (queue-depth peak,
            backpressure waits, poisoned/timed-out outcomes) and
            publishes its decoder's stage trace when one was collected.
    """

    def __init__(self, queue_chunks: int = 8,
                 watchdog_s: float | None = None,
                 isolate_errors: bool = False) -> None:
        if queue_chunks < 1:
            raise ValueError(
                f"queue_chunks must be >= 1, got {queue_chunks}")
        if watchdog_s is not None and watchdog_s <= 0.0:
            raise ValueError(
                f"watchdog_s must be positive, got {watchdog_s}")
        self.queue_chunks = queue_chunks
        self.watchdog_s = watchdog_s
        self.isolate_errors = isolate_errors
        self.registry = active_registry()
        self.sessions: dict[str, StreamSession] = {}

    # ------------------------------------------------------------------
    def add_session(self, session_id: str, decoder: StreamDecoder,
                    position_m: float = 0.0) -> StreamSession:
        """Register one stream; ids must be unique."""
        if session_id in self.sessions:
            raise ValueError(f"duplicate session id {session_id!r}")
        session = StreamSession(session_id, decoder,
                                position_m=position_m,
                                queue_chunks=self.queue_chunks)
        self.sessions[session_id] = session
        return session

    def session(self, session_id: str) -> StreamSession:
        return self.sessions[session_id]

    # ------------------------------------------------------------------
    async def feed(self, session_id: str, chunk: np.ndarray) -> None:
        """Enqueue one chunk; blocks while the session's queue is full."""
        session = self.sessions[session_id]
        if session.queue.full():
            session.stats.backpressure_waits += 1
        await session.queue.put(np.asarray(chunk, dtype=float))
        session.stats.max_queue_depth = max(session.stats.max_queue_depth,
                                            session.queue.qsize())
        if self.registry is not None:
            self.registry.gauge("stream_queue_depth").set(
                session.queue.qsize())

    async def close(self, session_id: str) -> None:
        """Signal end-of-stream; the worker flushes and finishes."""
        await self.sessions[session_id].queue.put(None)

    def _poison(self, session: StreamSession, exc: BaseException) -> None:
        """Mark a session failed after a decoder exception."""
        if not session.error:
            session.error = f"{type(exc).__name__}: {exc}"
            session.exception = exc
            log = active_events()
            if log is not None:
                log.emit("session_poisoned", session=session.session_id,
                         error=type(exc).__name__)
        session.stats.decode_errors += 1

    async def _drain(self, session: StreamSession) -> None:
        """Worker: pull chunks, feed the decoder, flush on the sentinel.

        A decoder that raises poisons only its own session: the worker
        keeps pulling and *discarding* the remaining chunks, so a
        producer parked on the session's full queue is always released
        — the failure is counted, never spread.
        """
        while True:
            item = await session.queue.get()
            started = time.perf_counter()
            if item is None:
                if not session.failed:
                    try:
                        session.decoder.flush()
                    except Exception as exc:
                        self._poison(session, exc)
                session.stats.busy_s += time.perf_counter() - started
                session.done.set()
                return
            if session.failed:
                continue
            try:
                session.decoder.push(item)
            except Exception as exc:
                self._poison(session, exc)
                session.stats.busy_s += time.perf_counter() - started
                continue
            session.stats.n_chunks += 1
            session.stats.n_samples += len(item)
            session.stats.busy_s += time.perf_counter() - started
            # Cooperative fairness: decoding is sync CPU work, so yield
            # the loop between chunks or one hot session starves all
            # others (and every producer behind a full queue).
            await asyncio.sleep(0)

    async def _produce(self, session_id: str,
                       chunks: Iterable[np.ndarray] | AsyncIterable,
                       feed_hz: float) -> None:
        interval = 1.0 / feed_hz if feed_hz > 0.0 else 0.0
        if hasattr(chunks, "__aiter__"):
            async for chunk in chunks:
                await self.feed(session_id, chunk)
                if interval:
                    await asyncio.sleep(interval)
        else:
            # No voluntary yield when unpaced: the producer runs until
            # the bounded queue blocks it — that *is* the backpressure
            # mechanism, and it is what hands the loop to the workers.
            for chunk in chunks:
                await self.feed(session_id, chunk)
                if interval:
                    await asyncio.sleep(interval)
        await self.close(session_id)

    async def _run_session(self, session_id: str,
                           chunks: Iterable[np.ndarray] | AsyncIterable,
                           feed_hz: float) -> None:
        """One session's producer/worker pair, watchdogged and contained.

        Everything that can go wrong stays on this session: decoder
        exceptions are poison-isolated inside :meth:`_drain`, producer
        exceptions (a broken feed) are captured here, and a watchdog
        expiry cancels the pair and marks the session ``timed_out`` —
        a stuck or raising session is counted, never allowed to wedge
        the mux or its siblings.
        """
        session = self.sessions[session_id]
        worker = asyncio.ensure_future(self._drain(session))
        producer = asyncio.ensure_future(
            self._produce(session_id, chunks, feed_hz))
        pair = asyncio.gather(worker, producer)
        try:
            if self.watchdog_s is not None:
                await asyncio.wait_for(pair, timeout=self.watchdog_s)
            else:
                await pair
        except asyncio.TimeoutError:
            session.stats.timed_out = True
            if not session.error:
                session.error = (f"watchdog timeout after "
                                 f"{self.watchdog_s:g} s")
                log = active_events()
                if log is not None:
                    log.emit("session_timeout",
                             session=session.session_id,
                             watchdog_s=self.watchdog_s)
        except Exception as exc:
            # The producer raised (broken feed iterable): record it on
            # this session; the worker is cancelled below while parked
            # on the queue (decoder exceptions never escape _drain).
            if not session.error:
                session.error = f"{type(exc).__name__}: {exc}"
                session.exception = exc
        finally:
            for task in (worker, producer):
                if not task.done():
                    task.cancel()
            await asyncio.gather(worker, producer, return_exceptions=True)
            if self.registry is not None:
                session.stats.to_metrics(self.registry)
                publish_stage_trace(self.registry,
                                    session.decoder.stage_trace, "stream")

    async def run(self, feeds: Mapping[str, Iterable[np.ndarray]],
                  feed_hz: float = 0.0) -> None:
        """Drive every session's producer and worker to completion.

        Every session runs contained (see :meth:`_run_session`): a
        poisoned or stuck session is cancelled and counted while its
        siblings finish normally.  Unless ``isolate_errors`` is set,
        the first captured exception is re-raised once all sessions
        complete.

        Args:
            feeds: session id -> iterable (or async iterable) of sample
                chunks.  Every id must already be registered.
            feed_hz: chunks per second per producer; 0 feeds as fast as
                backpressure allows.
        """
        unknown = set(feeds) - set(self.sessions)
        if unknown:
            raise KeyError(f"unregistered session ids: {sorted(unknown)}")
        await asyncio.gather(*[
            self._run_session(sid, chunks, feed_hz)
            for sid, chunks in feeds.items()])
        if not self.isolate_errors:
            for sid in feeds:
                exception = self.sessions[sid].exception
                if exception is not None:
                    raise exception

    # ------------------------------------------------------------------
    def detections(self) -> list[Detection]:
        """Every flushed session's pass report.

        Failed sessions (poisoned, timed out) never flushed, so they
        contribute nothing here — sibling fusion over the survivors is
        byte-identical to a run that never included the failed feed.
        """
        return [s.detection() for s in self.sessions.values()
                if s.decoder.flushed]

    def failed_sessions(self) -> list[StreamSession]:
        """Sessions the mux had to give up on (poisoned or timed out)."""
        return [s for s in self.sessions.values() if s.failed]

    def fused(self, expected_speed_mps: float | None = None,
              ) -> list[FusedObservation]:
        """Cross-session verdicts via the networked-receiver fusion.

        With an expected speed, detections are first clustered into
        per-pass groups exactly as a receiver network would
        (:func:`repro.net.group_by_pass`); without one, all sessions
        are treated as observers of the same pass and fused in one
        confidence-weighted vote.
        """
        detections = self.detections()
        if not detections:
            return []
        if expected_speed_mps is None:
            return [fuse_detections(detections)]
        groups = group_by_pass(detections, expected_speed_mps)
        return [fuse_detections(group) for group in groups]


def replay_traces(feeds: Mapping[str, tuple], chunk_size: int,
                  feed_hz: float = 0.0, queue_chunks: int = 8,
                  watchdog_s: float | None = None,
                  isolate_errors: bool = False,
                  chunks_by_session: Mapping[str, Iterable] | None = None,
                  ) -> SessionMux:
    """Replay captured traces as concurrent live sessions (sync entry).

    Args:
        feeds: session id -> ``(trace, n_data_symbols, decoder)``;
            ``n_data_symbols`` and ``decoder`` may be None.
        chunk_size: samples per chunk, >= 1.
        feed_hz: per-session feed pacing (0 = as fast as possible).
        queue_chunks: per-session backpressure bound.
        watchdog_s: optional per-session watchdog (see
            :class:`SessionMux`).
        isolate_errors: contain poisoned sessions instead of re-raising
            after the replay (see :class:`SessionMux`).
        chunks_by_session: optional per-session pre-chunked feed
            overriding the trace's own chunking — the fault layer's
            entry point for corrupted chunk transport.  Sessions not
            named fall back to chunking their trace.

    Returns:
        The completed mux (every healthy session flushed), ready for
        stats, events and fusion queries.
    """
    from .replay import iter_chunks

    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    overrides = chunks_by_session or {}
    unknown = set(overrides) - set(feeds)
    if unknown:
        raise KeyError(f"chunk overrides for unknown sessions: "
                       f"{sorted(unknown)}")
    mux = SessionMux(queue_chunks=queue_chunks, watchdog_s=watchdog_s,
                     isolate_errors=isolate_errors)
    chunk_feeds = {}
    for sid, (trace, n_data_symbols, decoder) in feeds.items():
        # All replay sessions observe from one place (position 0):
        # inventing distinct positions would make the speed-aware
        # pass-grouping expect travel time between sessions replaying
        # the same instant.  Callers modelling a spatial deployment
        # build the mux directly and pass real node positions.
        # With telemetry on, each replay session collects its own stage
        # trace (normalize/acquire/decide) that the mux publishes to
        # telemetry on completion; new_trace() is None otherwise.
        mux.add_session(sid, StreamDecoder(
            trace.sample_rate_hz, trace.start_time_s,
            n_data_symbols=n_data_symbols, decoder=decoder,
            stage_trace=new_trace()))
        chunk_feeds[sid] = (overrides[sid] if sid in overrides
                            else iter_chunks(trace.samples, chunk_size))
    coro = mux.run(chunk_feeds, feed_hz=feed_hz)
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        asyncio.run(coro)
    else:
        # Called from inside a running loop (a notebook, an async
        # app): asyncio.run would raise, so drive the replay on a
        # dedicated loop in a worker thread and block this caller —
        # the documented sync contract — until it completes.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(asyncio.run, coro).result()
    return mux
