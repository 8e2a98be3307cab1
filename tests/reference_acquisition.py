"""Reference preamble acquisition: the object-based oracle.

The decoder acquires its preamble with one array-based step per
smoothing scale (:func:`repro.core.decoder.scan_scale`), shared by the
serial, stream and tensor drivers.  This module keeps the readable
version that step replaced: every prominent extremum becomes an
:class:`Extremum`, a time-ordered walk finds the first A/B/C triple,
and the plausibility gates run on those objects.  Tests hold the fast
step to it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.channel.trace import SignalTrace
from repro.dsp.filters import moving_average
from repro.dsp.peaks import Extremum, find_peaks_and_valleys

Triple = tuple[Extremum, Extremum, Extremum]


def first_preamble_points(extrema: list[Extremum]) -> Triple | None:
    """Locate points A (peak), B (valley), C (peak) of the preamble.

    Scans for the first peak -> valley -> peak triple in time order,
    skipping any leading valleys (the trace may start on the dark ground
    before the first HIGH strip arrives).

    Returns:
        ``(A, B, C)`` or None if the pattern is absent.
    """
    a: Extremum | None = None
    b: Extremum | None = None
    for ext in extrema:
        if ext.kind == "peak":
            if a is None:
                a = ext
            elif b is not None:
                return (a, b, ext)
            else:
                # Two peaks without a valley between them: restart from
                # the later, stronger anchor.
                if ext.value > a.value:
                    a = ext
        else:  # valley
            if a is not None and b is None:
                b = ext
            elif a is not None and b is not None and ext.value < b.value:
                b = ext
    return None


def plausible_preamble(points: Triple, span: float, sigma: float,
                       swing_fraction: float = 0.25) -> bool:
    """Sanity checks that reject noise-triggered anchor triples.

    The swing must be a substantial fraction of the trace range and
    clear 4 sample-noise sigmas, and the A-B / B-C spacings must agree.
    """
    a, b, c = points
    tau_r = ((a.value - b.value) + (c.value - b.value)) / 2.0
    if tau_r < swing_fraction * span:
        return False
    if tau_r < 4.0 * sigma:
        return False
    d1 = b.time_s - a.time_s
    d2 = c.time_s - b.time_s
    if d1 <= 0.0 or d2 <= 0.0:
        return False
    return abs(d1 - d2) <= 0.6 * min(d1, d2)


def reference_scan(raw: np.ndarray, window: int, sigma: float, fs: float,
                   t0: float, swing_fraction: float = 0.25,
                   ) -> tuple[Triple | None, int | None]:
    """One smoothing scale: ``(accepted triple, earliest extremum)``.

    The earliest extremum is what the stream detector anchored on
    before it took it from the failed scan: the first prominent
    extremum, when the smoothed span clears 4 noise sigmas.
    """
    smooth = moving_average(raw, window)
    span = float(smooth.max() - smooth.min())
    if span <= 0.0:
        return None, None
    extrema = find_peaks_and_valleys(smooth, fs, t0,
                                     min_prominence=0.2 * span)
    points = first_preamble_points(extrema)
    if points is not None and not plausible_preamble(
            points, span, sigma, swing_fraction):
        points = None
    first = (extrema[0].index
             if extrema and span >= 4.0 * sigma else None)
    return points, first


def reference_acquire(trace: SignalTrace,
                      swing_fraction: float = 0.25) -> Triple | None:
    """Multi-scale acquisition, finest scale first; None on a miss."""
    raw = np.asarray(trace.samples, dtype=float)
    n = len(raw)
    if n == 0:
        return None
    sigma = float(np.std(np.diff(raw))) / math.sqrt(2.0) if n > 3 else 0.0
    for window in dict.fromkeys((max(3, n // 200), max(5, n // 64),
                                 max(7, n // 32))):
        points, _ = reference_scan(raw, window, sigma,
                                   trace.sample_rate_hz, trace.start_time_s,
                                   swing_fraction)
        if points is not None:
            return points
    return None
