"""The complete receiver front end: optics cap, detector, amplifier, ADC.

This chain turns the optical waveform produced by the channel simulator
(ambient-referred illuminance at the receiver aperture) into the RSS
sample stream that the paper's decoding algorithms consume.

The :class:`FovCap` models the "small physical cap (1.2x1.2x2.8 cm)"
of Section 5.2: it narrows the acceptance cone (suppressing interference
from surfaces adjacent to the tag, e.g. the car's metal roof) at the cost
of less impinging light — the paper explicitly accepts "the RSS drop
resulting from the smaller impinging light on the receiver".

:class:`ReceiverFrontEnd` splits the chain at the noise draw.
:meth:`~ReceiverFrontEnd.respond` is the seed-independent detector half
and :meth:`~ReceiverFrontEnd.digitize` the seeded noise, amplifier and
ADC half; both work along the last axis.  A serial capture runs them on
one waveform; the tensor driver runs ``respond`` once per optics group
and ``digitize`` once over the group's ``(R, T)`` noise rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..optics.geometry import FieldOfView
from .adc import Adc
from .amplifier import Amplifier, first_order_lowpass
from .photodiode import OpticalDetector

__all__ = ["FovCap", "ReceiverFrontEnd"]


@dataclass(frozen=True)
class FovCap:
    """A physical aperture that narrows a detector's field of view.

    The paper's cap is a small open-ended box in front of the photodiode:
    the acceptance half angle becomes ``atan(half_opening / depth)``.

    Attributes:
        opening_m: side length of the square opening (m).
        depth_m: depth of the cap (m).
        transmission: fraction of in-FoV light that still reaches the
            detector (walls absorb some skew rays).
        ambient_rejection: fraction of stray off-axis ambient light that
            leaks past the cap (caps cut background much harder than
            boresight signal).
    """

    opening_m: float = 0.012
    depth_m: float = 0.028
    transmission: float = 0.65
    ambient_rejection: float = 0.35

    def __post_init__(self) -> None:
        if self.opening_m <= 0.0 or self.depth_m <= 0.0:
            raise ValueError("cap dimensions must be positive")
        if not 0.0 < self.transmission <= 1.0:
            raise ValueError("transmission must be in (0, 1]")
        if not 0.0 < self.ambient_rejection <= 1.0:
            raise ValueError("ambient rejection factor must be in (0, 1]")

    @classmethod
    def paper_cap(cls) -> "FovCap":
        """The 1.2 x 1.2 x 2.8 cm cap from Section 5.2."""
        return cls(opening_m=0.012, depth_m=0.028)

    @property
    def full_angle_deg(self) -> float:
        """Full acceptance angle allowed by the cap geometry."""
        half = math.degrees(math.atan2(self.opening_m / 2.0, self.depth_m))
        return 2.0 * half

    def capped_fov(self, detector_fov: FieldOfView) -> FieldOfView:
        """Resulting FoV: the narrower of cap and detector."""
        return FieldOfView(min(detector_fov.full_angle_deg,
                               self.full_angle_deg))


@dataclass
class ReceiverFrontEnd:
    """Detector (+ optional cap) -> amplifier -> ADC signal chain.

    Attributes:
        detector: the optical detector (photodiode or RX-LED).
        cap: optional FoV-narrowing cap.
        amplifier: analog gain/buffer stage.
        adc: analog-to-digital converter.
        seed: RNG seed for the noise processes (deterministic captures).
    """

    detector: OpticalDetector
    cap: FovCap | None = None
    amplifier: Amplifier = field(default_factory=Amplifier.lm358)
    adc: Adc = field(default_factory=Adc.mcp3008)
    seed: int | None = None

    @property
    def effective_fov(self) -> FieldOfView:
        """FoV after applying the cap, if any."""
        if self.cap is None:
            return self.detector.fov
        return self.cap.capped_fov(self.detector.fov)

    @property
    def signal_transmission(self) -> float:
        """Optical transmission for in-FoV (footprint) light."""
        return 1.0 if self.cap is None else self.cap.transmission

    @property
    def ambient_transmission(self) -> float:
        """Optical transmission for stray/off-axis ambient light."""
        return 1.0 if self.cap is None else self.cap.ambient_rejection

    @property
    def sample_rate_hz(self) -> float:
        """Sampling rate of the output RSS stream."""
        return self.adc.sample_rate_hz

    def with_cap(self, cap: FovCap | None = None) -> "ReceiverFrontEnd":
        """A copy of this front end with a cap mounted (paper cap default)."""
        return ReceiverFrontEnd(
            detector=self.detector,
            cap=cap if cap is not None else FovCap.paper_cap(),
            amplifier=self.amplifier,
            adc=self.adc,
            seed=self.seed,
        )

    def saturates_at(self, ambient_lux: float) -> bool:
        """Whether an ambient noise floor rails this receiver.

        This is the Fig. 11 "supported noise floor" question: the
        detector clips when the (cap-attenuated) ambient level reaches
        its saturation input.
        """
        return (ambient_lux * self.ambient_transmission
                >= self.detector.saturation_lux)

    def respond(self, illuminance_lux: np.ndarray, sample_rate_hz: float,
                ) -> tuple[np.ndarray, np.ndarray]:
        """The seed-independent half of the chain, time on the last axis.

        Returns ``(v0, sigma)``: the detector's band-limited, saturating
        photoresponse and its noise sigma (thermal + shot, referred to
        the output) at that response, both shaped like the input.
        """
        e = np.asarray(illuminance_lux, dtype=float)
        if np.any(e < 0.0):
            raise ValueError("illuminance cannot be negative")
        v0 = self.detector.respond(first_order_lowpass(
            e, self.detector.bandwidth_hz, sample_rate_hz))
        return v0, self.detector.noise_sigma(v0)

    def digitize(self, v0: np.ndarray, sigma: np.ndarray, noise: np.ndarray,
                 sample_rate_hz: float) -> np.ndarray:
        """The seeded half: add noise, clip, amplify, quantise.

        ``noise`` holds standard-normal draws that ``v0`` and ``sigma``
        (from :meth:`respond`) broadcast against, so ``R`` noise rows
        digitize ``R`` captures of one response in one pass, each row
        bit-identical to its own :meth:`capture`.
        """
        v = np.clip(v0 + noise * sigma, 0.0, 1.0)
        return self.adc.convert(self.amplifier.amplify(v, sample_rate_hz))

    def capture(self, illuminance_lux: np.ndarray,
                sample_rate_hz: float | None = None,
                rng: np.random.Generator | None = None) -> np.ndarray:
        """Convert an optical waveform into ADC codes (the RSS stream).

        The input must already be the ambient-referred illuminance at the
        aperture *after* cap attenuation has been applied by the channel
        simulator (which knows which part of the light is footprint
        signal and which is stray ambient): :meth:`respond`, one noise
        draw, then :meth:`digitize`.

        Args:
            illuminance_lux: optical waveform at the detector (lux).
            sample_rate_hz: sampling rate of the waveform; defaults to
                the ADC's nominal rate.
            rng: noise generator; defaults to one seeded from ``seed``.

        Returns:
            Integer RSS codes, same length as the input.
        """
        fs = sample_rate_hz if sample_rate_hz is not None else self.adc.sample_rate_hz
        if np.ndim(illuminance_lux) != 1:
            raise ValueError("expected a 1-D waveform")
        v0, sigma = self.respond(illuminance_lux, fs)
        if rng is None:
            rng = np.random.default_rng(self.seed)
        return self.digitize(v0, sigma, rng.normal(0.0, 1.0, size=v0.shape),
                             fs)

    def describe(self) -> str:
        """One-line summary used in experiment reports."""
        cap = f" + cap({self.effective_fov.full_angle_deg:.1f} deg)" if self.cap else ""
        return (f"{self.detector.name}{cap}, FoV {self.effective_fov.full_angle_deg:.1f} deg, "
                f"sat {self.detector.saturation_lux:.0f} lux, "
                f"{self.adc.bits}-bit @ {self.adc.sample_rate_hz:.0f} S/s")
