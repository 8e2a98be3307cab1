"""Chunked sample ingestion: the stream runtime's sample history.

:class:`StreamBuffer` accepts arbitrary-sized sample chunks, tracks
the absolute sample clock, and exposes time-indexed windows of the
history as **views** (no copy), which is what lets the incremental
preamble detector re-scan a suffix thousands of times without
quadratic copying.

The buffer keeps the whole stream: the flush verdict is the offline
decode of everything that arrived, which a history that dropped its
oldest samples could not reproduce.  Storage is a backing array that
doubles when it fills, so every exposed window stays a contiguous
zero-copy slice at amortized O(1) per sample.
"""

from __future__ import annotations

import numpy as np

from ..channel.trace import SignalTrace

__all__ = ["StreamBuffer"]


class StreamBuffer:
    """Time-indexed history of a uniformly sampled stream.

    Attributes:
        sample_rate_hz: the stream's sampling rate, > 0.
        start_time_s: timestamp of the first sample ever appended.
    """

    def __init__(self, sample_rate_hz: float,
                 start_time_s: float = 0.0) -> None:
        if sample_rate_hz <= 0.0:
            raise ValueError(
                f"sample rate must be positive, got {sample_rate_hz}")
        self.sample_rate_hz = float(sample_rate_hz)
        self.start_time_s = float(start_time_s)
        self._data = np.empty(1024, dtype=float)
        self._n = 0             # samples appended so far

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of buffered samples."""
        return self._n

    @property
    def n_appended(self) -> int:
        """Total samples ever pushed into the buffer."""
        return self._n

    @property
    def end_time_s(self) -> float:
        """Timestamp one sample-period past the newest sample.

        Advances monotonically with every append — the stream clock the
        decode runtime stamps its events with.
        """
        return self.start_time_s + self._n / self.sample_rate_hz

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def append(self, chunk: np.ndarray) -> None:
        """Append one chunk of samples (any size, including empty).

        Raises:
            ValueError: on a non-1-D chunk.
        """
        arr = np.asarray(chunk, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"chunk must be 1-D, got shape {arr.shape}")
        n = len(arr)
        if n == 0:
            return
        if self._n + n > len(self._data):
            grown = np.empty(max(2 * len(self._data), self._n + n),
                             dtype=float)
            grown[:self._n] = self._data[:self._n]
            self._data = grown
        self._data[self._n:self._n + n] = arr
        self._n += n

    # ------------------------------------------------------------------
    # Time-indexed access
    # ------------------------------------------------------------------
    def _index_of(self, t: float) -> int:
        """Absolute sample index whose timestamp is >= ``t``."""
        return int(np.ceil((t - self.start_time_s) * self.sample_rate_hz
                           - 1e-9))

    def window(self, t_start: float, t_end: float) -> np.ndarray:
        """Buffered samples with timestamps in ``[t_start, t_end)``.

        Returns a zero-copy **view** into the buffer — valid until the
        next :meth:`append`; copy before storing.  Time before the
        stream start or past its end is clipped to what has arrived.
        """
        view, _ = self.window_with_time(t_start, t_end)
        return view

    def window_with_time(self, t_start: float,
                         t_end: float) -> tuple[np.ndarray, float]:
        """Like :meth:`window`, plus the exact timestamp of the view's
        first sample (needed to build correctly anchored sub-traces)."""
        if t_end <= t_start:
            raise ValueError("t_end must exceed t_start")
        i0 = max(self._index_of(t_start), 0)
        i1 = min(self._index_of(t_end), self._n)
        # An empty request (i1 <= i0) slices to an empty view.
        return self._data[i0:i1], self.time_of(i0)

    def time_of(self, absolute_index: int) -> float:
        """Timestamp of an absolute sample index."""
        return self.start_time_s + absolute_index / self.sample_rate_hz

    def to_trace(self, meta: dict | None = None) -> SignalTrace:
        """The whole history as a :class:`SignalTrace` (copied)."""
        return SignalTrace(self._data[:self._n].copy(), self.sample_rate_hz,
                           self.start_time_s, dict(meta) if meta else {})
