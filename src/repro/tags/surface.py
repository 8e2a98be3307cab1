"""Physical tag surfaces: strips of reflective material on moving objects.

A :class:`TagSurface` is the physical realisation of a :class:`Packet`:
one strip of material per symbol (aluminium tape for HIGH, black napkin
for LOW by default), laid along the direction of motion.  Tags and other
linear objects (car roofs, composite car+tag surfaces) expose a common
protocol — a length and a sampled effective-reflectance profile — that
the channel simulator sweeps under the receiver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from ..optics.materials import ALUMINUM_TAPE, BLACK_NAPKIN, Material
from ..optics.reflection import (
    OVERHEAD_GEOMETRY,
    IlluminationGeometry,
    effective_reflectance_profile,
)
from .encoding import Symbol
from .packet import Packet

__all__ = ["LinearSurface", "Strip", "TagSurface", "CompositeSurface"]


@runtime_checkable
class LinearSurface(Protocol):
    """Anything that can be swept under the receiver along a line."""

    @property
    def length_m(self) -> float:
        """Physical length along the direction of motion."""
        ...

    def reflectance_samples(self, xs_local: np.ndarray,
                            geometry: IlluminationGeometry) -> np.ndarray:
        """Effective reflectance (1/sr) at local positions in [0, length]."""
        ...


@dataclass(frozen=True)
class Strip:
    """One contiguous strip of a single material.

    Attributes:
        material: the strip's surface material.
        width_m: extent along the direction of motion (m).
    """

    material: Material
    width_m: float

    def __post_init__(self) -> None:
        if self.width_m <= 0.0:
            raise ValueError(f"strip width must be positive, got {self.width_m}")


@dataclass
class TagSurface:
    """A passive 'packet' as a sequence of material strips.

    Attributes:
        strips: the physical strips, in order of arrival under the
            receiver.
        label: optional human-readable name for reports.
    """

    strips: list[Strip]
    label: str = "tag"

    def __post_init__(self) -> None:
        if not self.strips:
            raise ValueError("a tag surface needs at least one strip")
        # Cache strip boundaries for fast profile sampling.
        widths = np.array([s.width_m for s in self.strips])
        self._edges = np.concatenate(([0.0], np.cumsum(widths)))

    @classmethod
    def from_packet(cls, packet: Packet,
                    high_material: Material = ALUMINUM_TAPE,
                    low_material: Material = BLACK_NAPKIN,
                    label: str | None = None) -> "TagSurface":
        """Materialise a packet: one strip per symbol, constant width."""
        strips = [
            Strip(high_material if s is Symbol.HIGH else low_material,
                  packet.symbol_width_m)
            for s in packet.symbols
        ]
        return cls(strips=strips,
                   label=label or f"tag[{packet.symbol_string()}]")

    @property
    def length_m(self) -> float:
        """Total tag length along the direction of motion."""
        return float(self._edges[-1])

    @property
    def min_feature_m(self) -> float:
        """Narrowest strip width — the resolution the simulator must hit."""
        return min(s.width_m for s in self.strips)

    def material_at(self, x_local: float) -> Material | None:
        """Material at a local position, or None outside the tag."""
        if x_local < 0.0 or x_local > self.length_m:
            return None
        idx = int(np.searchsorted(self._edges, x_local, side="right")) - 1
        idx = min(max(idx, 0), len(self.strips) - 1)
        return self.strips[idx].material

    def reflectance_samples(self, xs_local: np.ndarray,
                            geometry: IlluminationGeometry = OVERHEAD_GEOMETRY,
                            ) -> np.ndarray:
        """Sampled effective-reflectance profile of the tag.

        Positions outside [0, length] get reflectance 0 (the caller
        substitutes the ground's own reflectance there).
        """
        xs = np.asarray(xs_local, dtype=float)
        # Memoised per material: tags alternate between just two values.
        per_strip = effective_reflectance_profile(
            [s.material for s in self.strips], geometry)
        idx = np.searchsorted(self._edges, xs, side="right") - 1
        idx = np.clip(idx, 0, len(self.strips) - 1)
        out = per_strip[idx]
        outside = (xs < 0.0) | (xs > self.length_m)
        return np.where(outside, 0.0, out)

    def degraded(self, dirt_factor: float) -> "TagSurface":
        """A dirt-degraded copy (Section 3's 'dirt on top of the surfaces')."""
        return TagSurface(
            strips=[Strip(s.material.degraded(dirt_factor), s.width_m)
                    for s in self.strips],
            label=f"{self.label}+dirt{dirt_factor:.2f}",
        )

    def symbol_count(self) -> int:
        """Number of strips (symbols) on the tag."""
        return len(self.strips)


@dataclass
class CompositeSurface:
    """Several surfaces laid end to end (e.g. a car with a roof tag).

    Attributes:
        parts: ``(offset_m, surface)`` pairs; offsets are the local
            position of each part's leading edge, and parts later in the
            list override earlier ones where they overlap.
        total_length_m: overall length; defaults to the furthest part end.
        base_reflectance: effective reflectance of uncovered stretches.
    """

    parts: list[tuple[float, "LinearSurface"]]
    total_length_m: float | None = None
    base_reflectance: float = 0.0

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("a composite surface needs at least one part")
        for offset, part in self.parts:
            if offset < 0.0:
                raise ValueError(f"part offset cannot be negative, got {offset}")
            if part.length_m <= 0.0:
                raise ValueError("parts must have positive length")
        end = max(offset + part.length_m for offset, part in self.parts)
        if self.total_length_m is None:
            self.total_length_m = end
        elif self.total_length_m < end:
            raise ValueError(
                f"total length {self.total_length_m} is shorter than the "
                f"furthest part end {end}")

    @property
    def length_m(self) -> float:
        """Overall composite length."""
        assert self.total_length_m is not None
        return self.total_length_m

    @property
    def min_feature_m(self) -> float:
        """Narrowest feature over all parts that declare one."""
        features = [getattr(part, "min_feature_m", part.length_m)
                    for _, part in self.parts]
        return min(features)

    def reflectance_samples(self, xs_local: np.ndarray,
                            geometry: IlluminationGeometry = OVERHEAD_GEOMETRY,
                            ) -> np.ndarray:
        """Profile of the composite: later parts override earlier ones."""
        xs = np.asarray(xs_local, dtype=float)
        out = np.full(xs.shape, self.base_reflectance, dtype=float)
        for offset, part in self.parts:
            local = xs - offset
            covered = (local >= 0.0) & (local <= part.length_m)
            if np.any(covered):
                out[covered] = part.reflectance_samples(local[covered], geometry)
        outside = (xs < 0.0) | (xs > self.length_m)
        out[outside] = 0.0
        return out
