"""Scenes: one emitter, one receiver, moving reflective objects.

A :class:`PassiveScene` assembles the three block elements of the
paper's communication system (Section 2) — the emitter (any ambient
source), the 'packets' (reflective surfaces on moving objects) and the
receiver (described by its height; the detector itself lives in
:mod:`repro.hardware`) — plus the ground material and the atmosphere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..optics.geometry import Vec3
from ..optics.materials import BLACK_PAPER_GROUND, Material
from ..optics.reflection import IlluminationGeometry
from ..optics.sources import AmbientLightSource
from ..tags.surface import LinearSurface
from .distortion import CLEAR, Atmosphere
from .mobility import MotionProfile, time_to_reach

__all__ = ["MovingObject", "PassiveScene"]


@dataclass
class MovingObject:
    """A reflective surface moving through the receiver's FoV.

    Attributes:
        surface: the linear reflectance profile being swept.
        motion: leading-edge trajectory.
        name: label for reports.
        fov_share: lateral fraction of the footprint this object covers.
            Two side-by-side tags with shares 0.5/0.5 reproduce the
            'packet collision' setup of Section 4.3; a share above 0.5
            makes one packet "dominate the reflected light".
    """

    surface: LinearSurface
    motion: MotionProfile
    name: str = "object"
    fov_share: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.fov_share <= 1.0:
            raise ValueError(
                f"fov_share must be in (0, 1], got {self.fov_share}")

    def local_coordinates(self, ground_x: np.ndarray,
                          t: np.ndarray) -> np.ndarray:
        """Map ground positions to the surface's local coordinate.

        Local coordinate 0 is the leading edge (first part to arrive
        under the receiver) and grows towards the tail; a ground point
        ``x`` sits at ``u = x_lead(t) - x`` while ``0 <= u <= length``.
        """
        lead = np.asarray(self.motion.position(t), dtype=float)
        return lead - np.asarray(ground_x, dtype=float)

    def entry_exit_times(self, window_half_width_m: float,
                         t_max_s: float = 3600.0,
                         center_x_m: float = 0.0) -> tuple[float, float]:
        """Times when the object enters and fully leaves a +-w window.

        Args:
            window_half_width_m: half-width of the observation window
                centred at the receiver's ground position.
            t_max_s: search horizon.
            center_x_m: ground position of the window centre (the
                receiver's ``receiver_x_m``; 0 for the default
                single-receiver setup).

        Returns:
            ``(t_enter, t_exit)``: leading edge reaches ``center - w`` /
            trailing edge passes ``center + w``.
        """
        t_enter = time_to_reach(self.motion,
                                center_x_m - window_half_width_m, t_max_s)
        t_exit = time_to_reach(
            self.motion,
            center_x_m + window_half_width_m + self.surface.length_m,
            t_max_s)
        return t_enter, t_exit


@dataclass
class PassiveScene:
    """The full physical configuration of one experiment.

    Attributes:
        source: the ambient emitter.
        receiver_height_m: receiver height above the surface plane (m).
        objects: moving reflective objects (tags, cars, ...).
        ground: material of the plane where nothing covers it.
        atmosphere: optical state of the air (fog/haze/clear).
        receiver_x_m: receiver ground position along the motion axis.
    """

    source: AmbientLightSource
    receiver_height_m: float
    objects: list[MovingObject] = field(default_factory=list)
    ground: Material = BLACK_PAPER_GROUND
    atmosphere: Atmosphere = CLEAR
    receiver_x_m: float = 0.0

    def __post_init__(self) -> None:
        if self.receiver_height_m <= 0.0:
            raise ValueError(
                f"receiver height must be positive, got {self.receiver_height_m}")
        shares = sum(obj.fov_share for obj in self.objects)
        if self.objects and shares > 1.0 + 1e-9:
            raise ValueError(
                f"object FoV shares sum to {shares:.3f} > 1; they share one footprint")

    def illumination_geometry(self) -> IlluminationGeometry:
        """Source -> patch -> receiver geometry at the receiver's nadir.

        Evaluated at the footprint centre; the specular-lobe angle varies
        only slightly across the footprint for all the paper's setups.
        """
        incident = self.source.incident_direction(self.receiver_x_m)
        return IlluminationGeometry(
            incident_direction=incident,
            view_direction=Vec3(0.0, 0.0, 1.0),
            diffuse_fraction=self.source.diffuse_fraction(),
        )

    def noise_floor_lux(self, t: np.ndarray | float) -> np.ndarray:
        """Ambient noise floor at the receiver, including fog glare."""
        base = np.asarray(self.source.receiver_plane_illuminance(t),
                          dtype=float)
        if self.atmosphere.veiling_glare_fraction > 0.0:
            base = base + self.atmosphere.ambient_pedestal(float(np.mean(base)))
        return base

    def nominal_noise_floor_lux(self) -> float:
        """Time-averaged noise floor (the single number the paper quotes)."""
        t = np.linspace(0.0, 0.1, 256)
        return float(np.mean(self.noise_floor_lux(t)))
