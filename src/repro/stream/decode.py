"""The online decode state machine.

:class:`StreamDecoder` is the streaming counterpart of one offline
``AdaptiveThresholdDecoder.decode`` call.  Samples arrive in chunks of
any size; the machine walks

    IDLE -> ACQUIRING -> DECODING -> EMITTED

emitting timestamped :class:`DecodeEvent`\\ s along the way:

* ``onset`` — incremental acquisition locked onto the preamble
  (latency: stream clock at the lock minus the A-peak's signal time);
* ``first_bit`` — the first data bit's two symbol windows have fully
  arrived and were provisionally decided with the streaming thresholds;
* ``verdict`` — the final payload.

**Parity guarantee.**  The verdict is produced at :meth:`flush` by
running the configured *offline* decoder over the full assembled
stream, so for any chunk size — 1 sample, 64, or the whole trace at
once — the final verdict is byte-identical to the offline decode of
the same samples.  Everything incremental (onset, first-bit, the
running normaliser) only adds telemetry; it can never change the
answer.  All event clocks are *sample* clocks (the timestamp of the
last ingested sample), so latencies are deterministic and cacheable,
independent of wall-clock scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any

import numpy as np

from ..channel.trace import SignalTrace
from ..core.decoder import AdaptiveThresholdDecoder, DecodeResult
from ..core.errors import DecodeError, PreambleNotFoundError
from ..exec.graph import ExecStage, StageTrace, maybe_stage
from ..tags.encoding import Symbol
from .buffer import StreamBuffer
from .detect import AcquiredPreamble, PreambleDetector
from .normalize import OnlineNormalizer

if TYPE_CHECKING:
    from ..vehicles.rooftag import TwoPhaseDecoder

__all__ = ["StreamState", "DecodeEvent", "StreamDecoder"]


class StreamState(Enum):
    """Where the online decoder is in one packet's life cycle."""

    IDLE = "idle"
    ACQUIRING = "acquiring"
    DECODING = "decoding"
    EMITTED = "emitted"


#: Sample periods between two acquisition checks.  Re-running
#: acquisition every sample at chunk size 1 would dominate the cost;
#: one check per 8 periods keeps detection latency below a fraction of
#: a symbol.
CHECK_STRIDE_SAMPLES = 8


@dataclass(frozen=True)
class DecodeEvent:
    """One timestamped milestone of an online decode.

    Attributes:
        kind: ``onset`` | ``first_bit`` | ``verdict``.
        stream_time_s: sample-clock time of emission (timestamp one
            period past the last ingested sample).
        signal_time_s: when the underlying signal feature actually
            happened (A-peak time for onset, end of the first bit's
            windows for first_bit, end of the last data window —
            clamped to the stream end — for a decoded verdict).
        latency_s: ``stream_time_s - signal_time_s`` — how far behind
            the live signal the runtime announced the milestone.
        session_id: owning session ('' for bare decoders).
        bits: provisional bit for ``first_bit``; the payload for
            ``verdict`` ('' when nothing decoded).
        success: verdict only — a valid Manchester payload came out.
        stage: verdict only — ``decoded`` / ``decode_failed`` /
            ``preamble_not_found``.
    """

    kind: str
    stream_time_s: float
    signal_time_s: float
    latency_s: float
    session_id: str = ""
    bits: str = ""
    success: bool = False
    stage: str = ""

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-safe)."""
        return {
            "kind": self.kind,
            "stream_time_s": self.stream_time_s,
            "signal_time_s": self.signal_time_s,
            "latency_s": self.latency_s,
            "session_id": self.session_id,
            "bits": self.bits,
            "success": self.success,
            "stage": self.stage,
        }


class StreamDecoder:
    """Chunk-at-a-time online decoding of one pass.

    Attributes:
        buffer: the whole sample history, so the flush verdict sees
            exactly what an offline capture would.
        normalizer: running count/min/max over the stream.
        detector: incremental preamble acquisition, driven by the
            adaptive decoder the verdict uses (the two-phase car
            decoder's inner one).
        decoder: the offline decoder that produces the final verdict —
            an :class:`AdaptiveThresholdDecoder` or a two-phase car
            decoder wrapping one, as ``build_decoder`` makes them.
        n_data_symbols: expected data-field length, when known.
        session_id: stamped on every emitted event.
        stage_trace: optional :class:`StageTrace` — the incremental
            path attributes per-chunk normaliser updates to
            ``normalize`` and acquisition checks to ``acquire``; the
            flush decode times its own stages.  Telemetry only, never
            part of any verdict.
    """

    def __init__(self, sample_rate_hz: float, start_time_s: float = 0.0,
                 n_data_symbols: int | None = None,
                 decoder: AdaptiveThresholdDecoder | TwoPhaseDecoder
                 | None = None,
                 session_id: str = "",
                 stage_trace: StageTrace | None = None) -> None:
        self.buffer = StreamBuffer(sample_rate_hz, start_time_s)
        self.normalizer = OnlineNormalizer()
        self.decoder = decoder or AdaptiveThresholdDecoder()
        # Detection shares the verdict's threshold rule and window
        # shrink: a two-phase car decoder carries its configured
        # adaptive decoder as ``.decoder``.
        self.detector = PreambleDetector(
            self.decoder if isinstance(self.decoder, AdaptiveThresholdDecoder)
            else self.decoder.decoder)
        self._check_stride_s = CHECK_STRIDE_SAMPLES / sample_rate_hz
        if n_data_symbols is not None and n_data_symbols < 1:
            raise ValueError(
                f"n_data_symbols must be >= 1, got {n_data_symbols}")
        self.n_data_symbols = n_data_symbols
        self.session_id = session_id
        self.stage_trace = stage_trace
        self.state = StreamState.IDLE
        self.events: list[DecodeEvent] = []
        self.acquired: AcquiredPreamble | None = None
        self.result: DecodeResult | None = None
        self.final_trace: SignalTrace | None = None
        self._last_check_s = start_time_s
        self._first_bit_emitted = False
        self._flushed = False

    # ------------------------------------------------------------------
    @property
    def flushed(self) -> bool:
        """Whether the stream has been finalized."""
        return self._flushed

    def _emit(self, kind: str, signal_time_s: float, **extra) -> DecodeEvent:
        now = self.buffer.end_time_s
        event = DecodeEvent(kind=kind, stream_time_s=now,
                            signal_time_s=signal_time_s,
                            latency_s=now - signal_time_s,
                            session_id=self.session_id, **extra)
        self.events.append(event)
        return event

    # ------------------------------------------------------------------
    def push(self, chunk: np.ndarray) -> list[DecodeEvent]:
        """Ingest one chunk; returns the events this chunk triggered.

        Raises:
            RuntimeError: after :meth:`flush` — a finalized stream
                accepts no more samples.
        """
        if self._flushed:
            raise RuntimeError("stream already flushed; no more chunks")
        trace = self.stage_trace
        if trace is not None:
            trace.count("stream_chunks")
        arr = np.asarray(chunk, dtype=float)
        self.buffer.append(arr)
        with maybe_stage(trace, ExecStage.NORMALIZE):
            self.normalizer.update(arr)
        emitted_from = len(self.events)
        if self.state is StreamState.IDLE and self.buffer.n_appended:
            self.state = StreamState.ACQUIRING
        if (self.state is StreamState.ACQUIRING
                and self.buffer.end_time_s - self._last_check_s
                >= self._check_stride_s):
            self._last_check_s = self.buffer.end_time_s
            with maybe_stage(trace, ExecStage.ACQUIRE):
                acquired = self.detector.check(self.buffer)
            if acquired is not None:
                self.acquired = acquired
                self.state = StreamState.DECODING
                self._emit("onset", acquired.points[0].time_s)
        if self.state is StreamState.DECODING and not self._first_bit_emitted:
            self._maybe_emit_first_bit()
        return self.events[emitted_from:]

    def _provisional_symbol(self, w_start: float, w_end: float,
                            shrink: float) -> Symbol | None:
        """HIGH/LOW decision for one window on the raw buffered samples."""
        segment = self.buffer.window(w_start + shrink, w_end - shrink)
        if len(segment) == 0:
            return None
        level = self.acquired.threshold_level
        return Symbol.HIGH if float(segment.max()) > level else Symbol.LOW

    def _maybe_emit_first_bit(self) -> None:
        """Provisionally decide the first data bit once it has arrived."""
        acq = self.acquired
        first_bit_end = acq.data_start_s + 2.0 * acq.tau_t
        if self.buffer.end_time_s < first_bit_end:
            return
        config = self.detector.decoder.config
        shrink = config.window_shrink_fraction * acq.tau_t
        first = self._provisional_symbol(acq.data_start_s,
                                         acq.data_start_s + acq.tau_t, shrink)
        second = self._provisional_symbol(acq.data_start_s + acq.tau_t,
                                          first_bit_end, shrink)
        if first is None or second is None:
            return
        # Manchester (repro.tags.encoding): HIGH-LOW encodes 0,
        # LOW-HIGH encodes 1; equal halves are provisionally reported
        # as '?' (blur or a wrong clock — the flush verdict resolves
        # it).
        if first is Symbol.HIGH and second is Symbol.LOW:
            bit = "0"
        elif first is Symbol.LOW and second is Symbol.HIGH:
            bit = "1"
        else:
            bit = "?"
        self._first_bit_emitted = True
        self._emit("first_bit", first_bit_end, bits=bit)

    # ------------------------------------------------------------------
    def flush(self) -> list[DecodeEvent]:
        """Finalize the stream: offline-decode everything and emit the
        verdict.  Idempotent — a second flush returns no new events."""
        if self._flushed:
            return []
        self._flushed = True
        trace = self.buffer.to_trace()
        self.final_trace = trace
        stage, bits, success = "decode_failed", "", False
        signal_time = self.buffer.end_time_s
        try:
            # The decoder attributes its own interior stages
            # (normalize/acquire/refine_clock/decide).
            result = self.decoder.decode(
                trace, n_data_symbols=self.n_data_symbols,
                stage_trace=self.stage_trace)
            self.result = result
            bits = result.bit_string()
            success = result.success
            stage = "decoded" if success else "decode_failed"
            if result.windows:
                # A fitted clock can extrapolate the last window's
                # nominal end slightly past the final sample; the
                # verdict cannot lag a moment that never streamed, so
                # clamp to the stream end (keeps latency >= 0).
                signal_time = min(result.windows[-1].t_end_s,
                                  self.buffer.end_time_s)
        except PreambleNotFoundError:
            stage = "preamble_not_found"
        except DecodeError:
            stage = "decode_failed"
        event = self._emit("verdict", signal_time, bits=bits,
                           success=success, stage=stage)
        self.state = StreamState.EMITTED
        return [event]

    # ------------------------------------------------------------------
    @property
    def verdict_latency_s(self) -> float | None:
        """Verdict latency, gated on a decode that produced a payload.

        A failed decode's verdict event carries a placeholder time (the
        stream end, or a clamped window edge) — a measurement of
        nothing.  Every consumer that *records* verdict latency
        (RunRecord, session outcomes, replay dumps) goes through this
        one gate so the contract cannot drift.
        """
        if self.result is None or not self.result.success:
            return None
        return self.latency("verdict")

    def event(self, kind: str) -> DecodeEvent | None:
        """The first emitted event of one kind, or None."""
        for ev in self.events:
            if ev.kind == kind:
                return ev
        return None

    def latency(self, kind: str) -> float | None:
        """Latency of the first event of one kind, or None."""
        ev = self.event(kind)
        return ev.latency_s if ev is not None else None
