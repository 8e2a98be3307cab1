"""Cars carrying roof tags: the Section 5.2/5.3 configuration.

"We place a 'packet' on the roof of a car and attach the receiver to a
pole supporting structure."  The composite surface is the car profile
with the tag overriding the roof span; decoding is two-phase — long
preamble (car shape) first, then the Section 4.1 decoder on the roof
window.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..channel.trace import SignalTrace
from ..core.decoder import (AdaptiveThresholdDecoder, DecodeResult,
                            DecoderConfig)
from ..core.errors import DecodeError, PreambleNotFoundError
from ..exec.graph import ExecStage, StageTrace, maybe_stage
from ..tags.packet import Packet
from ..tags.surface import CompositeSurface, TagSurface
from .profiles import CarProfile
from .signature import LongPreambleDetector

__all__ = ["TaggedCar", "tagged_car_surface", "TwoPhaseDecoder"]


def tagged_car_surface(car: CarProfile, packet: Packet,
                       roof_offset_m: float = 0.05) -> CompositeSurface:
    """A car with a packet tag mounted on its roof.

    Args:
        car: the vehicle profile.
        packet: the payload; its physical length must fit on the roof.
        roof_offset_m: gap between the roof's leading edge and the tag.

    Raises:
        ValueError: when the tag does not fit on the roof segment.
    """
    roof_start, roof_end = car.segment_span("roof")
    tag = TagSurface.from_packet(packet)
    tag_start = roof_start + roof_offset_m
    if tag_start + tag.length_m > roof_end:
        raise ValueError(
            f"tag of {tag.length_m:.2f} m does not fit on the "
            f"{roof_end - roof_start:.2f} m roof with offset {roof_offset_m} m")
    return CompositeSurface(
        parts=[(0.0, car), (tag_start, tag)],
        total_length_m=car.length_m,
    )


@dataclass
class TaggedCar:
    """A car + roof tag pairing, ready to drop into a scene.

    Attributes:
        car: the vehicle.
        packet: the payload on the roof.
        roof_offset_m: tag placement offset from the roof's front edge.
    """

    car: CarProfile
    packet: Packet
    roof_offset_m: float = 0.05

    def surface(self) -> CompositeSurface:
        """The composite car+tag reflectance profile."""
        return tagged_car_surface(self.car, self.packet, self.roof_offset_m)

    def tag_span_m(self) -> tuple[float, float]:
        """Local [start, end] of the tag on the car."""
        roof_start, _ = self.car.segment_span("roof")
        start = roof_start + self.roof_offset_m
        return start, start + self.packet.length_m


class TwoPhaseDecoder:
    """Long-duration preamble acquisition, then threshold decoding.

    Section 5.2: "We first look for the long-duration-preamble based on
    the car's shape (by detecting the hood 'peak' and windshield
    'valley') [then] perform the decoding algorithm in Sec. 4.1."

    Attributes:
        preamble_detector: the hood/windshield landmark detector.
        decoder: the Section 4.1 decoder applied to the roof window.
    """

    def __init__(self,
                 preamble_detector: LongPreambleDetector | None = None,
                 decoder: AdaptiveThresholdDecoder | None = None) -> None:
        self.preamble_detector = preamble_detector or LongPreambleDetector()
        self.decoder = decoder or AdaptiveThresholdDecoder()

    def stack_input(self, trace: SignalTrace,
                    stage_trace: StageTrace | None = None,
                    ) -> tuple[SignalTrace, DecoderConfig]:
        """Phase 1, timed as ``acquire``: the roof window phase 2
        decodes, and phase 2's config (a row of a decode stack).

        Raises:
            PreambleNotFoundError: when the long preamble (car shape) is
                absent.
        """
        with maybe_stage(stage_trace, ExecStage.ACQUIRE):
            roof = self.preamble_detector.roof_window(trace)
        if roof is None:
            raise PreambleNotFoundError(
                "long-duration preamble (hood peak + windshield valley) "
                "not found")
        return roof, self.decoder.config

    def decode(self, trace: SignalTrace,
               n_data_symbols: int | None = None,
               stage_trace: StageTrace | None = None) -> DecodeResult:
        """Decode a tagged-car pass: phase 1 (:meth:`stack_input`),
        then the Section 4.1 decoder on the roof window, which
        attributes its own interior when profiled.

        Raises:
            PreambleNotFoundError: when the long preamble (car shape) is
                absent, or the tag preamble cannot be acquired in the
                roof window.
            DecodeError: when windowing fails inside the roof region.
        """
        roof, _ = self.stack_input(trace, stage_trace)
        return self.decoder.decode(roof, n_data_symbols=n_data_symbols,
                                   stage_trace=stage_trace)

    def try_decode(self, trace: SignalTrace,
                   n_data_symbols: int | None = None) -> DecodeResult | None:
        """Like :meth:`decode` but returns None on failure."""
        try:
            return self.decode(trace, n_data_symbols=n_data_symbols)
        except (PreambleNotFoundError, DecodeError):
            return None
