"""Online level state for streaming decode.

The paper's plots (and the offline decoder's inputs) are min-max
normalised over the *whole* captured pass — an operation a streaming
receiver cannot perform directly because the extremes are only known
once the pass has fully arrived.  :class:`OnlineNormalizer` keeps the
exact running min / max, so once the final chunk has arrived its
extremes are those :meth:`repro.channel.SignalTrace.normalized` divides
by.  Session dumps surface the running min/max/span.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["OnlineNormalizer"]


class OnlineNormalizer:
    """Running count, min, max and span over a sample stream."""

    def __init__(self) -> None:
        self._min = math.inf
        self._max = -math.inf
        self._count = 0
        self._n_finite = 0

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Samples absorbed so far (including excluded non-finite ones)."""
        return self._count

    @property
    def min(self) -> float:
        """Running minimum (NaN before any finite sample)."""
        return self._min if self._n_finite else math.nan

    @property
    def max(self) -> float:
        """Running maximum (NaN before any finite sample)."""
        return self._max if self._n_finite else math.nan

    @property
    def span(self) -> float:
        """Running peak-to-peak range (0.0 before any finite sample)."""
        return self._max - self._min if self._n_finite else 0.0

    # ------------------------------------------------------------------
    def update(self, chunk: np.ndarray) -> None:
        """Absorb one chunk of samples.

        Non-finite samples (NaN, inf — a glitched ADC word) are
        counted but excluded from the statistics, mirroring how the
        hardened acquisition path treats degenerate windows: the
        stream degrades gracefully instead of raising mid-flight.
        """
        arr = np.asarray(chunk, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"chunk must be 1-D, got shape {arr.shape}")
        if len(arr) == 0:
            return
        self._count += len(arr)
        finite = arr if np.isfinite(arr).all() else arr[np.isfinite(arr)]
        if len(finite) == 0:
            return
        self._n_finite += len(finite)
        self._min = min(self._min, float(finite.min()))
        self._max = max(self._max, float(finite.max()))
