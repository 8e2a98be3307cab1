"""Peak and valley detection for preamble acquisition.

The adaptive decoder (Section 4.1) anchors its thresholds on "the first
two peaks and the first valley present in the preamble, points A, B and
C in Fig. 5(a)".  This module finds prominence-filtered extrema robustly
on noisy RSS traces; the decoder's
:func:`~repro.core.decoder.scan_scale` picks the A/B/C triple from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as sp_signal

try:  # pragma: no cover - exercised whenever scipy ships the module
    from scipy.signal import _peak_finding_utils as _pfu
except Exception:  # pragma: no cover - older/newer scipy layouts
    _pfu = None

__all__ = ["Extremum", "find_peaks_and_valleys"]


def _prominent_peaks(x: np.ndarray, prominence: float,
                     distance: int | None) -> np.ndarray:
    """Indices of peaks with at least ``prominence``, like ``find_peaks``.

    ``sp_signal.find_peaks`` spends most of its time in Python argument
    plumbing; for the common prominence-only case this calls the same
    two C routines it wraps (local maxima, then prominences with
    unrestricted ``wlen``) directly.  The filter ``proms >= prominence``
    is the exact bound ``_select_by_property`` applies, so the selected
    indices are identical; any scipy layout change falls back to the
    public wrapper.
    """
    if _pfu is None or distance is not None:
        idx, _ = sp_signal.find_peaks(x, prominence=prominence,
                                      distance=distance)
        return idx
    try:
        peaks, _, _ = _pfu._local_maxima_1d(
            np.ascontiguousarray(x, dtype=np.float64))
        if len(peaks) == 0:
            return peaks
        proms, _, _ = _pfu._peak_prominences(
            np.ascontiguousarray(x, dtype=np.float64), peaks, -1)
    except Exception:  # pragma: no cover - private-API drift
        idx, _ = sp_signal.find_peaks(x, prominence=prominence,
                                      distance=distance)
        return idx
    return peaks[proms >= prominence]


@dataclass(frozen=True)
class Extremum:
    """One detected signal extremum.

    Attributes:
        index: sample index.
        time_s: timestamp.
        value: signal value at the extremum.
        kind: ``"peak"`` or ``"valley"``.
    """

    index: int
    time_s: float
    value: float
    kind: str


def find_peaks_and_valleys(samples: np.ndarray, sample_rate_hz: float,
                           start_time_s: float = 0.0,
                           min_prominence: float | None = None,
                           min_distance_s: float | None = None,
                           ) -> list[Extremum]:
    """All prominent peaks and valleys, in time order.

    Args:
        samples: the (usually smoothed) RSS trace.
        sample_rate_hz: sampling rate.
        start_time_s: timestamp of the first sample.
        min_prominence: minimum prominence; defaults to 20 % of the
            signal's peak-to-peak range (adaptive, per the paper's "no
            a-priori calibration" requirement).
        min_distance_s: minimum spacing between same-kind extrema.
    """
    x = np.asarray(samples, dtype=float)
    if sample_rate_hz <= 0.0:
        raise ValueError("sample rate must be positive")
    if len(x) < 3:
        # Too short to contain an interior extremum — the degenerate
        # windows streaming acquisition probes must read as "no
        # extrema", never raise.
        return []
    span = float(x.max() - x.min())
    if span == 0.0 or not np.isfinite(span):
        # All-constant (or non-finite) windows have no usable extrema;
        # a NaN/inf span would otherwise poison the prominence
        # threshold handed to scipy.
        return []
    prominence = (min_prominence if min_prominence is not None
                  else 0.2 * span)
    distance = None
    if min_distance_s is not None:
        distance = max(1, int(round(min_distance_s * sample_rate_hz)))

    peak_idx = _prominent_peaks(x, prominence, distance)
    valley_idx = _prominent_peaks(-x, prominence, distance)
    out = [Extremum(int(i), start_time_s + i / sample_rate_hz,
                    float(x[i]), "peak") for i in peak_idx]
    out += [Extremum(int(i), start_time_s + i / sample_rate_hz,
                     float(x[i]), "valley") for i in valley_idx]
    out.sort(key=lambda e: e.index)
    return out
