"""repro.stream — the online streaming-decode runtime.

Every other decode path in this reproduction is offline: capture the
whole pass, then decode.  This package is the deployment mode the paper
actually describes — a receiver processing RSS samples *as they
arrive* — built from five pieces:

* :class:`StreamBuffer` — chunked ingestion of the whole history,
  with zero-copy time-indexed windows;
* :class:`OnlineNormalizer` — the running count, min, max and span,
  whose extremes are those :meth:`SignalTrace.normalized` uses once
  the pass has fully arrived;
* :class:`PreambleDetector` — incremental acquisition over the unseen
  suffix (plus adaptive overlap) instead of the full history;
* :class:`StreamDecoder` — the IDLE -> ACQUIRING -> DECODING -> EMITTED
  state machine emitting timestamped :class:`DecodeEvent`\\ s, with a
  parity guarantee: at any chunk size, the flush verdict is
  byte-identical to the offline decode of the same samples;
* :class:`SessionMux` — an asyncio layer multiplexing many concurrent
  receiver sessions with backpressure, per-session stats and
  cross-session fusion via :mod:`repro.net`.

Quickstart::

    from repro.stream import replay_trace

    replay = replay_trace(trace, chunk_size=64, n_data_symbols=4)
    print(replay.verdict.bits, replay.latency("onset"))

From the shell::

    repro-engine stream --scenario convoy --count 32 --sessions 32
"""

from .buffer import StreamBuffer
from .decode import DecodeEvent, StreamDecoder, StreamState
from .detect import AcquiredPreamble, PreambleDetector
from .normalize import OnlineNormalizer
from .replay import StreamReplay, iter_chunks, replay_trace
from .session import SessionMux, SessionStats, StreamSession, replay_traces

__all__ = [
    "AcquiredPreamble", "DecodeEvent", "OnlineNormalizer",
    "PreambleDetector", "SessionMux", "SessionStats", "StreamBuffer",
    "StreamDecoder", "StreamReplay", "StreamSession", "StreamState",
    "iter_chunks", "replay_trace", "replay_traces",
]
