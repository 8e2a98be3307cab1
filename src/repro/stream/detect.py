"""Incremental preamble acquisition over a growing stream.

Offline acquisition re-scans the whole trace; doing that on every
arriving chunk is quadratic in stream length.  :class:`PreambleDetector`
runs the decoder's own multi-scale acquisition
(:meth:`~repro.core.decoder.AdaptiveThresholdDecoder.scan_preamble`)
over a window from its scan start to the stream end, and advances
that start using what the failed scan learned, read off that scan's
finest scale so that each check smooths and searches its window once:

* a scan that found *extrema* but no plausible A/B/C triple keeps its
  start anchored just before the first extremum — a partially-arrived
  preamble (A and B in view, C still in flight) must stay in the window
  until its tail arrives;
* a scan that found *nothing* advances to ``end - min_overlap_s`` — a
  provably quiet prefix cannot grow a preamble retroactively, because
  prominence thresholds only rise as the packet's swing arrives;
* ``max_overlap_s`` caps the window either way, bounding per-check cost
  for arbitrarily long feeds.

The start only moves once a check has ruled out more than
``min_overlap_s`` of quiet stream.  On a pass shorter than that, every
check rescans the buffer from its first sample, and nearly every
failed check runs all three smoothing scales.

Detection is an *event* estimate (when did the receiver know a packet
had started); the byte-exact verdict always comes from the offline
decode at flush time, so a conservative miss here costs latency
telemetry, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.decoder import AdaptiveThresholdDecoder, ScaleScan
from ..channel.trace import SignalTrace
from ..dsp.peaks import Extremum
from .buffer import StreamBuffer

__all__ = ["AcquiredPreamble", "PreambleDetector"]


@dataclass(frozen=True)
class AcquiredPreamble:
    """What incremental acquisition learned when it locked on.

    Attributes:
        points: the (A, B, C) anchor extrema, absolute times.
        tau_r: magnitude threshold (Section 4.1).
        tau_t: symbol-period estimate.
        threshold_level: absolute HIGH/LOW decision level.
        detected_at_s: stream time when the lock happened (the last
            ingested sample's timestamp) — onset latency is
            ``detected_at_s - points[0].time_s``.
    """

    points: tuple[Extremum, Extremum, Extremum]
    tau_r: float
    tau_t: float
    threshold_level: float
    detected_at_s: float

    @property
    def anchor_s(self) -> float:
        """Start time of preamble symbol 1 (A sits half a period in)."""
        return self.points[0].time_s - 0.5 * self.tau_t

    @property
    def data_start_s(self) -> float:
        """Start time of the first data window (after 4 preamble symbols)."""
        return self.anchor_s + 4.0 * self.tau_t


class PreambleDetector:
    """Suffix-window preamble acquisition with adaptive overlap.

    Attributes:
        decoder: the :class:`AdaptiveThresholdDecoder` whose acquisition
            (multi-scale smoothing, plausibility gates) is re-used
            verbatim on each window.
        n_checks / n_scanned_samples: cost accounting — the incremental
            contract is that ``n_scanned_samples`` stays far below
            ``n_checks * stream_length``.
    """

    #: Windows shorter than this many samples are not worth scanning.
    MIN_WINDOW_SAMPLES = 8
    #: Overlap (s) kept past a provably quiet prefix.
    min_overlap_s = 1.0
    #: Hard cap (s) on the scan window length.
    max_overlap_s = 12.0

    def __init__(self, decoder: AdaptiveThresholdDecoder | None = None
                 ) -> None:
        self.decoder = decoder or AdaptiveThresholdDecoder()
        self._scan_from_s: float | None = None
        self.n_checks = 0
        self.n_scanned_samples = 0

    # ------------------------------------------------------------------
    def check(self, buffer: StreamBuffer) -> AcquiredPreamble | None:
        """Scan from the scan start to the stream end for the preamble.

        Returns the acquired anchor state on success, None otherwise.
        Never raises on degenerate windows (constant, tiny, empty) —
        those simply keep returning None.
        """
        if self._scan_from_s is None:
            self._scan_from_s = buffer.start_time_s
        t_end = buffer.end_time_s
        start = max(self._scan_from_s, t_end - self.max_overlap_s)
        view, t0 = buffer.window_with_time(start, t_end + 1.0)
        if len(view) < self.MIN_WINDOW_SAMPLES:
            return None
        self.n_checks += 1
        self.n_scanned_samples += len(view)
        trace = SignalTrace(view, buffer.sample_rate_hz, t0)
        scans = self.decoder.scan_preamble(trace)
        points = scans[-1].points
        if points is None:
            self._advance(scans[0], trace, t_end)
            return None
        tau_r, tau_t = self.decoder.thresholds(points)
        level = self.decoder._threshold_level(tau_r, points[1].value)
        return AcquiredPreamble(points=points, tau_r=tau_r, tau_t=tau_t,
                                threshold_level=level, detected_at_s=t_end)

    def _advance(self, finest: ScaleScan, trace: SignalTrace,
                 t_end: float) -> None:
        """Move the scan start past what the failed scan ruled out.

        Anchoring on *any* extremum would pin the scan start forever on
        noisy feeds — smoothed noise always has extrema because the
        prominence threshold is span-relative — and per-check cost
        would grow until the overlap cap.  So the anchor only holds
        when the window's swing towers over its sample-to-sample noise
        (the decoder's own 4-sigma plausibility bound): a window that
        is noise through and through is *quiet*, and a real packet's
        shoulder will clear the bound the moment it starts arriving.
        The failed check's finest-scale scan already knows both: it
        searches for extrema only when its span clears that bound, and
        reports the earliest one it found.
        """
        quiet_from = t_end - self.min_overlap_s
        if finest.first_index is not None:
            # Keep a partially-arrived pattern in view: anchor just
            # before the earliest extremum still standing.
            anchor = (trace.start_time_s
                      + finest.first_index / trace.sample_rate_hz
                      - self.min_overlap_s)
            quiet_from = min(quiet_from, anchor)
        new_start = max(self._scan_from_s or trace.start_time_s,
                        min(quiet_from, t_end))
        self._scan_from_s = max(new_start, t_end - self.max_overlap_s)
