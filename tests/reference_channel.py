"""Reference channel kernels: the readable versions the simulator replaced.

:meth:`repro.channel.simulator.ChannelSimulator._rho_block` interpolates
only the cells an object covers and builds each object's contribution
in place; :func:`repro.channel.mobility.time_to_reach` starts a
constant-speed search at the closed-form time.  This module keeps the
originals -- a full-matrix block built from a scaled ground matrix, a
full interpolation and a ``where`` copy, and the 100-step bisection --
and tests hold the program to them byte for byte.
"""

from __future__ import annotations

import numpy as np


def rho_block(sim, t: np.ndarray, offsets: np.ndarray, rho_ground: float,
              du: float) -> np.ndarray:
    """``sim``'s ``(len(t), len(offsets))`` effective-reflectance matrix."""
    geometry = sim.illumination_geometry()
    rho = np.full((len(t), len(offsets)), rho_ground, dtype=float)
    total_share = sum(obj.fov_share for obj in sim.scene.objects)
    rho *= max(0.0, 1.0 - total_share)
    for obj in sim.scene.objects:
        us, profile = sim._object_profile(obj, du, geometry)
        local = obj.local_coordinates(offsets[None, :], t[:, None])
        inside = (local >= 0.0) & (local <= obj.surface.length_m)
        sampled = np.interp(local.ravel(), us,
                            profile).reshape(local.shape)
        contribution = np.where(inside, sampled, rho_ground)
        rho += obj.fov_share * contribution
    return rho


def time_to_reach(profile, target_position_m: float,
                  t_max_s: float = 3600.0) -> float:
    """Earliest time ``profile`` reaches a target, by 100-step bisection."""
    if float(profile.position(0.0)) >= target_position_m:
        return 0.0
    if float(profile.position(t_max_s)) < target_position_m:
        raise ValueError(
            f"target {target_position_m} m not reached within {t_max_s} s")
    lo, hi = 0.0, t_max_s
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if float(profile.position(mid)) < target_position_m:
            lo = mid
        else:
            hi = mid
    return hi
