"""Car optical signatures and the long-duration preamble (Section 5).

Section 5.1 uses the bare car as a baseline: its metal/glass alternation
produces a unique peak/valley waveform (Figs. 13-14).  Section 5.2 then
exploits it: "The ability to detect the shape of the car with the RX-LED
allows us to use the car's optical signature as a long-duration-preamble
of the packet, indicating when the receiver needs to get ready to decode
information" — concretely, "detecting the hood 'peak' and windshield
'valley'" before running the Section 4.1 decoder on the roof region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..channel.trace import SignalTrace
from ..dsp.filters import moving_average
from ..dsp.peaks import Extremum, find_peaks_and_valleys
from .profiles import CarProfile

__all__ = ["SignatureFeature", "CarSignature", "extract_signature",
           "LongPreambleDetector", "match_car"]


@dataclass(frozen=True)
class SignatureFeature:
    """One landmark of a car signature.

    Attributes:
        label: feature tag ('hood', 'windshield', ...), assigned when
            matched against a car profile; detection order otherwise.
        kind: 'peak' (metal) or 'valley' (glass).
        time_s: feature timestamp.
        value: RSS level at the feature.
        width_s: duration of the feature's plateau (time between the
            mid-level crossings around the extremum); 0 when it could
            not be measured.  Feature widths are proportional to segment
            lengths at constant speed, which is what tells a sedan's
            long trunk deck from a hatchback's short tailgate lip.
    """

    label: str
    kind: str
    time_s: float
    value: float
    width_s: float = 0.0


@dataclass
class CarSignature:
    """A car's captured optical signature.

    Attributes:
        features: alternating peak/valley landmarks in time order.
        trace: the capture the signature was extracted from.
    """

    features: list[SignatureFeature]
    trace: SignalTrace

    @property
    def pattern(self) -> str:
        """Compact pattern string, e.g. ``"PVPVP"`` for a sedan."""
        return "".join("P" if f.kind == "peak" else "V"
                       for f in self.features)

    def n_peaks(self) -> int:
        """Number of metal-panel peaks."""
        return sum(1 for f in self.features if f.kind == "peak")

    def n_valleys(self) -> int:
        """Number of glass valleys."""
        return sum(1 for f in self.features if f.kind == "valley")


def extract_signature(trace: SignalTrace,
                      min_prominence_fraction: float = 0.25,
                      smoothing_fraction: float = 0.02) -> CarSignature:
    """Extract the alternating peak/valley landmark sequence of a pass.

    Args:
        trace: RSS capture of a car pass.
        min_prominence_fraction: prominence threshold relative to the
            trace's span.
        smoothing_fraction: moving-average width as a fraction of the
            trace length (car features are long; heavy smoothing is
            safe and kills tag modulation riding on the roof).

    Returns:
        The signature with features in time order, de-duplicated so
        peaks and valleys strictly alternate (strongest survives).
    """
    if not 0.0 < min_prominence_fraction < 1.0:
        raise ValueError("prominence fraction must be in (0, 1)")
    smooth = moving_average(trace.samples,
                            max(3, int(len(trace.samples) * smoothing_fraction)))
    span = float(smooth.max() - smooth.min())
    if span == 0.0:
        return CarSignature(features=[], trace=trace)
    extrema = find_peaks_and_valleys(
        smooth, trace.sample_rate_hz, trace.start_time_s,
        min_prominence=min_prominence_fraction * span)

    # Enforce strict alternation: within a run of same-kind extrema keep
    # the most extreme one.
    filtered: list[Extremum] = []
    for ext in extrema:
        if filtered and filtered[-1].kind == ext.kind:
            keep_new = (ext.value > filtered[-1].value
                        if ext.kind == "peak"
                        else ext.value < filtered[-1].value)
            if keep_new:
                filtered[-1] = ext
        else:
            filtered.append(ext)

    # Measure each feature's plateau width at the mid level between the
    # typical peak and valley values.
    if filtered:
        peak_vals = [e.value for e in filtered if e.kind == "peak"]
        valley_vals = [e.value for e in filtered if e.kind == "valley"]
        if peak_vals and valley_vals:
            mid = (float(np.median(peak_vals))
                   + float(np.median(valley_vals))) / 2.0
        else:
            mid = float(np.median(smooth))
    widths: list[float] = []
    for ext in filtered:
        above = smooth > mid if ext.kind == "peak" else smooth < mid
        left = ext.index
        while left > 0 and above[left - 1]:
            left -= 1
        right = ext.index
        while right < len(smooth) - 1 and above[right + 1]:
            right += 1
        widths.append((right - left + 1) / trace.sample_rate_hz)

    features = [SignatureFeature(label=f"f{i}", kind=e.kind,
                                 time_s=e.time_s, value=e.value,
                                 width_s=w)
                for i, (e, w) in enumerate(zip(filtered, widths))]
    return CarSignature(features=features, trace=trace)


def _expected_pattern(car: CarProfile) -> str:
    return "".join("P" if seg.material.name == "car_paint_metal" else "V"
                   for seg in car.segments)


def match_car(signature: CarSignature,
              candidates: list[CarProfile],
              max_width_rms: float = 0.08) -> CarProfile | None:
    """Identify the car whose signature best fits the capture.

    Matching is two-stage, mirroring how the paper distinguishes the two
    test cars: first the metal/glass alternation pattern must agree
    (metal -> P, glass -> V), then the *relative widths* of the features
    — at constant speed, a feature's plateau duration is proportional to
    its segment's length, so a sedan's long trunk deck (a wide final
    peak) is cleanly separated from a hatchback's short tailgate lip.
    Feature widths are used instead of peak times because the maximum of
    a flat plateau lands wherever the noise puts it.

    Args:
        signature: the extracted landmark sequence.
        candidates: car profiles to match against.
        max_width_rms: reject matches whose normalised feature-width
            RMS error exceeds this.

    Returns:
        The best-fitting candidate, or None when nothing fits.
    """
    if len(signature.features) < 2:
        return None
    observed = signature.pattern
    obs_widths = np.array([f.width_s for f in signature.features])
    total = float(obs_widths.sum())
    if total <= 0.0:
        return None
    obs_fracs = obs_widths / total
    best: tuple[float, CarProfile] | None = None
    for car in candidates:
        if observed != _expected_pattern(car):
            continue
        lengths = np.array([seg.length_m for seg in car.segments])
        expected_fracs = lengths / lengths.sum()
        if len(expected_fracs) != len(obs_fracs):
            continue
        rms = float(np.sqrt(np.mean((obs_fracs - expected_fracs) ** 2)))
        if rms <= max_width_rms and (best is None or rms < best[0]):
            best = (rms, car)
    return best[1] if best is not None else None


@dataclass
class LongPreambleDetector:
    """Detects the hood-peak -> windshield-valley long preamble.

    Attributes:
        min_prominence_fraction: prominence threshold for the two
            landmark features.
        roof_end_fraction: how much of the capture after the windshield
            valley is handed to the decoder (1.0 = to the end).
    """

    min_prominence_fraction: float = 0.25
    roof_end_fraction: float = 1.0

    def detect(self, trace: SignalTrace) -> tuple[float, float] | None:
        """Find the long preamble in a capture.

        Returns:
            ``(hood_peak_time, windshield_valley_time)`` of the first
            peak-then-valley pair, or None when absent.
        """
        signature = extract_signature(
            trace, min_prominence_fraction=self.min_prominence_fraction)
        hood: SignatureFeature | None = None
        for feature in signature.features:
            if feature.kind == "peak" and hood is None:
                hood = feature
            elif feature.kind == "valley" and hood is not None:
                return hood.time_s, feature.time_s
        return None

    def roof_window(self, trace: SignalTrace) -> SignalTrace | None:
        """Slice the capture from the end of the windshield valley on.

        The Section 4.1 decoder then runs on this sub-trace, whose first
        prominent peaks are the tag's own HLHL preamble.

        Returns:
            The roof-region sub-trace, or None when the long preamble
            was not found.
        """
        found = self.detect(trace)
        if found is None:
            return None
        hood_t, valley_t = found
        # The roof starts roughly one hood-to-windshield interval past
        # the valley centre... conservatively start at the valley itself:
        # the tag preamble's first peak is found by prominence anyway.
        t_end = trace.start_time_s + trace.duration_s
        if self.roof_end_fraction < 1.0:
            t_end = valley_t + self.roof_end_fraction * (t_end - valley_t)
        try:
            return trace.slice_time(valley_t, t_end)
        except ValueError:
            return None
