"""Replaying captured traces as live chunk feeds.

The bridge between the offline world (a :class:`SignalTrace` captured
by the channel simulator, or recorded from hardware) and the streaming
runtime: split a trace into chunks, feed them through a
:class:`StreamDecoder`, and summarize what the online path measured.
Everything here is engine-agnostic — the execution engine imports this
module, never the other way around.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from ..channel.trace import SignalTrace
from .decode import DecodeEvent, StreamDecoder

__all__ = ["iter_chunks", "replay_trace", "StreamReplay"]

#: Opt-in transport stress for CI: when set to a loss probability in
#: (0, 1), every chunk feed produced by :func:`iter_chunks` models a
#: lossy link with retransmission — a "lost" chunk's delivery slot
#: arrives empty and its samples ride with the next delivery.  Sample
#: content and order are preserved, so every decode output stays
#: byte-identical (the chunking-invariance guarantee under test);
#: only chunk boundaries and wall-clock pacing shift.
STRESS_ENV = "REPRO_STREAM_CHUNK_LOSS"


def _stress_loss() -> float:
    raw = os.environ.get(STRESS_ENV)
    if not raw:
        return 0.0
    try:
        p = float(raw)
    except ValueError as exc:
        raise ValueError(
            f"{STRESS_ENV} must be a probability, got {raw!r}") from exc
    if not 0.0 <= p < 1.0:
        raise ValueError(
            f"{STRESS_ENV} must be in [0, 1), got {p}")
    return p


def _lossy_link(chunks: Iterator[np.ndarray], loss: float,
                seed: tuple[int, ...]) -> Iterator[np.ndarray]:
    """Deterministic loss-with-retransmission over a chunk feed.

    Each chunk is lost in transit with probability ``loss``: its slot
    delivers zero samples and the payload is retransmitted with the
    next delivery (one trailing slot flushes a loss on the final
    chunk).  The assembled stream is unchanged — this perturbs the
    *transport boundaries*, which downstream decode must be invariant
    to.
    """
    rng = np.random.default_rng(seed)
    carry: np.ndarray | None = None
    empty: np.ndarray | None = None
    for chunk in chunks:
        if carry is not None:
            chunk = np.concatenate([carry, chunk])
            carry = None
        if rng.random() < loss:
            carry = chunk
            if empty is None:
                empty = np.zeros(0, dtype=np.asarray(chunk).dtype)
            yield empty
        else:
            yield chunk
    if carry is not None:
        yield carry


def iter_chunks(samples: np.ndarray,
                chunk_size: int) -> Iterator[np.ndarray]:
    """Split a sample array into consecutive chunks of ``chunk_size``.

    The final chunk carries the remainder.  Chunks are views — cheap,
    but consumers must copy before mutating.  When the
    ``REPRO_STREAM_CHUNK_LOSS`` stress knob is set, the feed passes
    through a deterministic lossy-link model (see :data:`STRESS_ENV`).

    Raises:
        ValueError: for ``chunk_size < 1``.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    arr = np.asarray(samples)

    def plain() -> Iterator[np.ndarray]:
        for start in range(0, len(arr), chunk_size):
            yield arr[start:start + chunk_size]

    loss = _stress_loss()
    if loss:
        # Seeded from the feed's shape so a rerun of the same test is
        # byte-identical, while distinct feeds draw distinct losses.
        return _lossy_link(plain(), loss, seed=(len(arr), chunk_size))
    return plain()


@dataclass
class StreamReplay:
    """Outcome of replaying one trace through the online runtime.

    Attributes:
        decoder: the flushed :class:`StreamDecoder` (events, result,
            normalizer state all live on it).
        n_chunks: chunks fed.
    """

    decoder: StreamDecoder
    n_chunks: int

    @property
    def events(self) -> list[DecodeEvent]:
        return self.decoder.events

    @property
    def verdict(self) -> DecodeEvent:
        """The verdict event (always present after a replay)."""
        return self.decoder.event("verdict")

    def latency(self, kind: str) -> float | None:
        """Sample-clock latency of one event kind, or None."""
        return self.decoder.latency(kind)


def replay_trace(trace: SignalTrace, chunk_size: int,
                 n_data_symbols: int | None = None,
                 decoder: object | None = None,
                 chunks: list[np.ndarray] | None = None,
                 stage_trace: Any | None = None) -> StreamReplay:
    """Feed one captured trace chunk-by-chunk and flush.

    The returned replay's verdict is byte-identical to decoding the
    assembled stream offline with the same ``decoder`` — the streaming
    parity guarantee.  Without a ``chunks`` override the assembled
    stream *is* the trace, so the verdict matches the trace's offline
    decode.

    Args:
        trace: the captured pass (supplies sample rate and timebase).
        chunk_size: samples per chunk, >= 1.
        n_data_symbols: expected data-field length, when known.
        decoder: offline decoder for the verdict (default adaptive).
        chunks: optional pre-chunked feed replacing the trace's own
            samples — the fault layer's entry point for corrupted
            transport (dropped/duplicated/reordered chunks).  The
            verdict then describes the corrupted stream, by design.
        stage_trace: optional ``StageTrace`` forwarded to the stream
            decoder for per-stage attribution (telemetry only).
    """
    stream = StreamDecoder(trace.sample_rate_hz, trace.start_time_s,
                           n_data_symbols=n_data_symbols, decoder=decoder,
                           stage_trace=stage_trace)
    feed = chunks if chunks is not None else iter_chunks(trace.samples,
                                                         chunk_size)
    n_chunks = 0
    for chunk in feed:
        stream.push(chunk)
        n_chunks += 1
    stream.flush()
    return StreamReplay(decoder=stream, n_chunks=n_chunks)
