"""Car roof-line reflectance profiles (Section 5.1).

"The top part of the cars have two different materials, metal and
glass, with different lengths and shapes.  Thus, their optical
signatures should be unique."  Figs. 13-14 show the signatures: metal
panels — hood (A), roof (C), trunk (E) — reflect much more light
(peaks) than the front and rear windshields (B, D) which read as
valleys from above.

A :class:`CarProfile` is a piecewise-material linear surface
implementing the same protocol as tag surfaces, so cars sweep through
the channel simulator unchanged.  The segment lengths below are
top-view projections measured off the two test vehicles' silhouettes:

* **Volvo V40** — a hatchback: hood, windshield, long roof, steep rear
  window, no separate trunk deck (the signature of Fig. 13 ends after
  the rear-window valley D).
* **BMW 3 series** — a sedan: adds the trunk deck peak E of Fig. 14.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..optics.materials import CAR_GLASS, CAR_PAINT_METAL, Material
from ..optics.reflection import (
    OVERHEAD_GEOMETRY,
    IlluminationGeometry,
    effective_reflectance_profile,
)

__all__ = ["CarSegment", "CarProfile", "volvo_v40", "bmw_3_series",
           "CAR_LIBRARY", "car_by_name"]


@dataclass(frozen=True)
class CarSegment:
    """One top-view segment of a car's roof line.

    Attributes:
        name: segment label ("hood", "windshield", ...).
        material: surface material seen from above.
        length_m: extent along the car's axis.
    """

    name: str
    material: Material
    length_m: float

    def __post_init__(self) -> None:
        if self.length_m <= 0.0:
            raise ValueError(f"segment length must be positive, got {self.length_m}")


@dataclass
class CarProfile:
    """A car as a linear reflectance profile.

    Attributes:
        model: vehicle model name.
        segments: roof-line segments, front to back (the front arrives
            under the receiver first).
    """

    model: str
    segments: list[CarSegment]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a car profile needs at least one segment")
        lengths = np.array([s.length_m for s in self.segments])
        self._edges = np.concatenate(([0.0], np.cumsum(lengths)))

    @property
    def length_m(self) -> float:
        """Overall car length (top view)."""
        return float(self._edges[-1])

    @property
    def min_feature_m(self) -> float:
        """Shortest segment — sets the simulator's resolution needs."""
        return min(s.length_m for s in self.segments)

    def segment_at(self, x_local: float) -> CarSegment | None:
        """Segment at a local position (None outside the car)."""
        if x_local < 0.0 or x_local > self.length_m:
            return None
        idx = int(np.searchsorted(self._edges, x_local, side="right")) - 1
        idx = min(max(idx, 0), len(self.segments) - 1)
        return self.segments[idx]

    def segment_span(self, name: str) -> tuple[float, float]:
        """Local [start, end) span of a named segment.

        Raises:
            KeyError: if the car has no segment with that name.
        """
        for i, seg in enumerate(self.segments):
            if seg.name == name:
                return float(self._edges[i]), float(self._edges[i + 1])
        raise KeyError(f"{self.model} has no segment named {name!r}")

    def reflectance_samples(self, xs_local: np.ndarray,
                            geometry: IlluminationGeometry = OVERHEAD_GEOMETRY,
                            ) -> np.ndarray:
        """Effective-reflectance profile along the roof line."""
        xs = np.asarray(xs_local, dtype=float)
        per_seg = effective_reflectance_profile(
            [s.material for s in self.segments], geometry)
        idx = np.searchsorted(self._edges, xs, side="right") - 1
        idx = np.clip(idx, 0, len(self.segments) - 1)
        out = per_seg[idx]
        outside = (xs < 0.0) | (xs > self.length_m)
        return np.where(outside, 0.0, out)

    def metal_segments(self) -> list[str]:
        """Names of the strongly reflecting (metal) segments."""
        return [s.name for s in self.segments
                if s.material.name == CAR_PAINT_METAL.name]

    def glass_segments(self) -> list[str]:
        """Names of the weakly reflecting (glass) segments."""
        return [s.name for s in self.segments
                if s.material.name == CAR_GLASS.name]


def volvo_v40() -> CarProfile:
    """The Volvo V40 hatchback of Fig. 13: hood A, windshield B, roof C,
    rear window D, plus the short tailgate lip that gives Fig. 13's
    waveform its small rise at the very tail.  The lip is much shorter
    than a sedan's trunk deck — segment timing is what separates the V40
    from the BMW, not the feature count."""
    return CarProfile(
        model="Volvo V40",
        segments=[
            CarSegment("hood", CAR_PAINT_METAL, 0.95),
            CarSegment("windshield", CAR_GLASS, 0.75),
            CarSegment("roof", CAR_PAINT_METAL, 1.45),
            CarSegment("rear_window", CAR_GLASS, 0.90),
            CarSegment("tailgate_lip", CAR_PAINT_METAL, 0.25),
        ],
    )


def bmw_3_series() -> CarProfile:
    """The BMW 3-series sedan of Fig. 14 (adds the trunk deck peak E)."""
    return CarProfile(
        model="BMW 3 series",
        segments=[
            CarSegment("hood", CAR_PAINT_METAL, 1.10),
            CarSegment("windshield", CAR_GLASS, 0.70),
            CarSegment("roof", CAR_PAINT_METAL, 1.15),
            CarSegment("rear_window", CAR_GLASS, 0.65),
            CarSegment("trunk", CAR_PAINT_METAL, 1.05),
        ],
    )


CAR_LIBRARY = {
    "volvo_v40": volvo_v40,
    "bmw_3_series": bmw_3_series,
}


def car_by_name(name: str) -> CarProfile:
    """Build a library car by key.

    Raises:
        KeyError: with the list of known models.
    """
    try:
        return CAR_LIBRARY[name]()
    except KeyError:
        known = ", ".join(sorted(CAR_LIBRARY))
        raise KeyError(f"unknown car {name!r}; known: {known}") from None
