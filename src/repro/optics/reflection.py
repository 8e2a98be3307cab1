"""Reflection models: how surfaces turn ambient light into signal.

The paper's channel is a *reflection* channel: "the power loss of this
communication channel is a function of the reflection coefficient of the
reflective material" (Section 2).  Surfaces are modelled with a diffuse
(Lambertian) component and a specular Phong lobe, both energy-normalised:

* diffuse: luminance ``L_d = rho_d * E / pi`` in every direction;
* specular: luminance concentrated around the mirror direction with a
  normalised ``cos^n`` lobe carrying total energy ``rho_s * E``.

The *effective reflectance towards a receiver* collapses both components
into a single scalar (units 1/sr) for a given illumination/viewing
geometry; this is what distinguishes aluminium tape (HIGH) from a black
napkin (LOW) and what changes between an overhead LED lamp and the sun
at 45 degrees elevation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import Vec3, UP
from .materials import Material

__all__ = [
    "mirror_direction",
    "phong_lobe_value",
    "effective_reflectance",
    "IlluminationGeometry",
    "OVERHEAD_GEOMETRY",
]


def mirror_direction(incident: Vec3, normal: Vec3 = UP) -> Vec3:
    """Specular mirror direction for light arriving along ``incident``.

    Args:
        incident: unit-ish vector pointing *from the source towards the
            surface* (i.e. the propagation direction of the light).
        normal: outward surface normal.

    Returns:
        Unit vector of the specularly reflected ray (pointing away from
        the surface).
    """
    d = incident.normalized()
    n = normal.normalized()
    r = d - 2.0 * d.dot(n) * n
    return r.normalized()


def phong_lobe_value(exponent: float, off_mirror_rad: float) -> float:
    """Energy-normalised Phong lobe evaluated ``off_mirror_rad`` from peak.

    The lobe ``(n + 2) / (2 * pi) * cos^n(alpha)`` integrates to 1 over
    the hemisphere centred on the mirror direction, so multiplying by the
    specular reflectance conserves energy.

    Args:
        exponent: lobe sharpness ``n`` (>= 0).
        off_mirror_rad: angle between the viewing direction and the
            mirror direction.
    """
    if exponent < 0.0:
        raise ValueError(f"Phong exponent must be >= 0, got {exponent}")
    c = math.cos(off_mirror_rad)
    if c <= 0.0:
        return 0.0
    return (exponent + 2.0) / (2.0 * math.pi) * c**exponent


@dataclass(frozen=True)
class IlluminationGeometry:
    """The geometry factors of one (source, patch, receiver) triple.

    Attributes:
        incident_direction: unit vector of light propagation at the patch
            (from source towards patch).
        view_direction: unit vector from the patch towards the receiver.
        normal: outward surface normal of the patch.
        diffuse_fraction: fraction of the illumination arriving from a
            uniformly bright hemisphere rather than along
            ``incident_direction``.  Collimated sources (sun, LED lamp)
            are 0; a fluorescent-lit ceiling or overcast skylight is ~1.
            Under fully diffuse light a specular surface mirrors the
            source hemisphere, so its specular term degenerates to the
            diffuse form ``rho_s / pi``.
    """

    incident_direction: Vec3
    view_direction: Vec3
    normal: Vec3 = UP
    diffuse_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.diffuse_fraction <= 1.0:
            raise ValueError(
                f"diffuse fraction must be in [0, 1], got {self.diffuse_fraction}")

    def incidence_cosine(self) -> float:
        """cos of incidence angle (0 when the patch is back-lit)."""
        return max(0.0, -self.incident_direction.normalized().dot(
            self.normal.normalized()))

    def view_cosine(self) -> float:
        """cos of the viewing angle (0 when viewed from behind)."""
        return max(0.0, self.view_direction.normalized().dot(
            self.normal.normalized()))

    def off_mirror_angle(self) -> float:
        """Angle between the view direction and the mirror direction."""
        mirror = mirror_direction(self.incident_direction, self.normal)
        return mirror.angle_to(self.view_direction)


#: A source directly above the patch with the receiver also overhead —
#: the paper's basic setup of Fig. 1 (receiver looking straight down at a
#: passing tag illuminated from above).
OVERHEAD_GEOMETRY = IlluminationGeometry(
    incident_direction=Vec3(0.0, 0.0, -1.0),
    view_direction=Vec3(0.0, 0.0, 1.0),
)


@lru_cache(maxsize=256)
def effective_reflectance(material: Material,
                          geometry: IlluminationGeometry = OVERHEAD_GEOMETRY,
                          ) -> float:
    """Effective reflectance (1/sr) of ``material`` towards the receiver.

    Combines the diffuse term ``rho_d / pi`` with the specular lobe
    evaluated at the receiver's off-mirror angle.  Multiplying by the
    patch's *surface illuminance* (which already contains the incidence
    cosine — see :meth:`AmbientLightSource.ground_illuminance`) gives the
    patch luminance seen by the receiver.

    Memoised per process on its two frozen arguments: the value is a
    pure function of them, and every capture of a scene asks again.
    Geometries equal up to the sign of a zero component share an entry,
    which is exact: a signed zero changes no cosine or angle here.
    """
    df = geometry.diffuse_fraction
    back_lit = geometry.incidence_cosine() == 0.0
    if back_lit and df == 0.0:
        return 0.0  # purely collimated and arriving from behind
    diffuse = material.diffuse_reflectance / math.pi
    specular = 0.0
    if material.specular_reflectance > 0.0:
        lobe_collimated = 0.0 if back_lit else phong_lobe_value(
            material.specular_exponent, geometry.off_mirror_angle())
        # Uniform-hemisphere illumination turns the specular lobe into a
        # mirror image of that hemisphere: luminance rho_s * E / pi.
        lobe_diffuse = 1.0 / math.pi
        specular = material.specular_reflectance * (
            (1.0 - df) * lobe_collimated + df * lobe_diffuse)
    return diffuse + specular


def effective_reflectance_profile(materials: "np.ndarray | list[Material]",
                                  geometry: IlluminationGeometry = OVERHEAD_GEOMETRY,
                                  ) -> np.ndarray:
    """Vectorised :func:`effective_reflectance` with memoisation per material.

    Args:
        materials: sequence of :class:`Material` (repeats are common —
            tags alternate between two materials).
        geometry: illumination geometry shared by all patches.

    Returns:
        Array of effective reflectances, same length as ``materials``.
    """
    cache: dict[str, float] = {}
    out = np.empty(len(materials), dtype=float)
    for i, mat in enumerate(materials):
        val = cache.get(mat.name)
        if val is None:
            val = effective_reflectance(mat, geometry)
            cache[mat.name] = val
        out[i] = val
    return out
