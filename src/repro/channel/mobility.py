"""Mobility profiles: how tagged objects move under the receiver.

The paper's experiments span constant-speed passes (8 cm/s on the work
plane, 18 km/h outdoors), a speed that *doubles mid-packet* (the Fig. 8
distortion scenario) and, in general, "variable speeds of the mobile
object" as a commonplace channel distortion (Section 3).

A profile maps time to the position of the object's **leading edge**
along the motion axis; position must be non-decreasing (objects don't
back up under the receiver in any of the paper's scenarios).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "MotionProfile",
    "ConstantSpeed",
    "PiecewiseConstantSpeed",
    "LinearRamp",
    "SpeedJitter",
    "speed_doubling_profile",
    "time_to_reach",
    "KMH_TO_MPS",
]

#: Conversion factor: km/h to m/s (the paper's 18 km/h car = 5 m/s).
KMH_TO_MPS = 1000.0 / 3600.0


class MotionProfile:
    """Base class: position of the object's leading edge over time."""

    def position(self, t: np.ndarray | float) -> np.ndarray:
        """Leading-edge position (m) at time(s) ``t`` (s)."""
        raise NotImplementedError

    def speed(self, t: np.ndarray | float) -> np.ndarray:
        """Instantaneous speed (m/s); default numeric differentiation."""
        tt = np.asarray(t, dtype=float)
        dt = 1e-4
        return (np.asarray(self.position(tt + dt))
                - np.asarray(self.position(tt))) / dt


@dataclass
class ConstantSpeed(MotionProfile):
    """Uniform motion: ``x(t) = x0 + v * t``.

    Attributes:
        speed_mps: constant speed (m/s), > 0.
        start_position_m: leading-edge position at t = 0.
    """

    speed_mps: float
    start_position_m: float = 0.0

    def __post_init__(self) -> None:
        if self.speed_mps <= 0.0:
            raise ValueError(f"speed must be positive, got {self.speed_mps}")

    def position(self, t):
        # No np.asarray: a float time stays a Python float through the
        # same two IEEE-rounded operations, which keeps
        # :func:`time_to_reach`'s bisection in plain float arithmetic.
        return self.start_position_m + self.speed_mps * t

    def speed(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.speed_mps)


@dataclass
class PiecewiseConstantSpeed(MotionProfile):
    """Speed that changes at given *positions* along the track.

    The Fig. 8 experiment is positional: "this object moves at a certain
    speed when its first half (preamble) passes the receiver, and the
    speed is doubled when the second half (Data field) passes by" — the
    change is tied to how much of the object has gone past, so the
    breakpoints are positions, not times.

    Attributes:
        breakpoints_m: positions where the speed changes (ascending).
        speeds_mps: ``len(breakpoints) + 1`` speeds, all > 0.
        start_position_m: leading-edge position at t = 0.
    """

    breakpoints_m: Sequence[float]
    speeds_mps: Sequence[float]
    start_position_m: float = 0.0

    def __post_init__(self) -> None:
        if len(self.speeds_mps) != len(self.breakpoints_m) + 1:
            raise ValueError(
                f"need {len(self.breakpoints_m) + 1} speeds for "
                f"{len(self.breakpoints_m)} breakpoints, got {len(self.speeds_mps)}")
        if any(v <= 0.0 for v in self.speeds_mps):
            raise ValueError("all speeds must be positive")
        bps = list(self.breakpoints_m)
        if bps != sorted(bps):
            raise ValueError("breakpoints must be ascending")
        if bps and bps[0] <= self.start_position_m:
            raise ValueError("breakpoints must lie ahead of the start position")
        # Precompute the time at which each breakpoint is reached.
        self._bp_times: list[float] = []
        t_acc = 0.0
        pos = self.start_position_m
        for bp, v in zip(bps, self.speeds_mps):
            t_acc += (bp - pos) / v
            self._bp_times.append(t_acc)
            pos = bp

    def position(self, t):
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(tt)
        bp_times = np.array([0.0] + self._bp_times)
        bp_pos = np.array([self.start_position_m] + list(self.breakpoints_m))
        speeds = np.array(self.speeds_mps)
        seg = np.clip(np.searchsorted(bp_times, tt, side="right") - 1,
                      0, len(speeds) - 1)
        out = bp_pos[seg] + speeds[seg] * (tt - bp_times[seg])
        return out if np.ndim(t) else float(out[0])

    def speed(self, t):
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        bp_times = np.array([0.0] + self._bp_times)
        speeds = np.array(self.speeds_mps)
        seg = np.clip(np.searchsorted(bp_times, tt, side="right") - 1,
                      0, len(speeds) - 1)
        out = speeds[seg]
        return out if np.ndim(t) else float(out[0])


@dataclass
class LinearRamp(MotionProfile):
    """Uniform acceleration: ``x(t) = x0 + v0 t + a t^2 / 2``.

    Speed is clamped to stay positive: deceleration stops at (near) zero
    rather than reversing, since the paper's objects never back up.

    Attributes:
        initial_speed_mps: speed at t = 0, > 0.
        acceleration_mps2: constant acceleration.
        start_position_m: leading-edge position at t = 0.
    """

    initial_speed_mps: float
    acceleration_mps2: float = 0.0
    start_position_m: float = 0.0

    def __post_init__(self) -> None:
        if self.initial_speed_mps <= 0.0:
            raise ValueError("initial speed must be positive")

    def _stall_time(self) -> float:
        if self.acceleration_mps2 >= 0.0:
            return math.inf
        return self.initial_speed_mps / -self.acceleration_mps2

    def position(self, t):
        tt = np.asarray(t, dtype=float)
        t_eff = np.minimum(tt, self._stall_time())
        return (self.start_position_m + self.initial_speed_mps * t_eff
                + 0.5 * self.acceleration_mps2 * t_eff**2)

    def speed(self, t):
        tt = np.asarray(t, dtype=float)
        v = self.initial_speed_mps + self.acceleration_mps2 * tt
        return np.clip(v, 0.0, None)


@dataclass
class SpeedJitter(MotionProfile):
    """A base profile with smooth random speed variation.

    Models hand-pushed trolleys and human drivers: the speed wanders
    around the nominal value with bounded relative deviation.

    Attributes:
        base: the underlying profile.
        relative_deviation: peak speed deviation fraction, in [0, 0.9].
        wavelength_s: time scale of the wander.
        seed: RNG seed (the jitter is frozen at construction).
    """

    base: MotionProfile
    relative_deviation: float = 0.1
    wavelength_s: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.relative_deviation <= 0.9:
            raise ValueError("relative deviation must be in [0, 0.9]")
        if self.wavelength_s <= 0.0:
            raise ValueError("wavelength must be positive")
        rng = np.random.default_rng(self.seed)
        self._phases = rng.uniform(0.0, 2.0 * math.pi, size=3)
        self._weights = rng.uniform(0.5, 1.0, size=3)
        self._weights /= self._weights.sum()

    def _modulation_integral(self, t: np.ndarray) -> np.ndarray:
        """Integral of the (1 + jitter) speed modulation from 0 to t."""
        total = np.asarray(t, dtype=float).copy()
        for k, (phase, w) in enumerate(zip(self._phases, self._weights)):
            omega = 2.0 * math.pi * (k + 1) / self.wavelength_s
            total = total + (self.relative_deviation * w / omega
                             * (np.sin(omega * np.asarray(t) + phase)
                                - math.sin(phase)))
        return total

    def position(self, t):
        # Warp time through the jitter modulation, then ask the base
        # profile; for constant-speed bases this is exact.
        warped = self._modulation_integral(np.asarray(t, dtype=float))
        return self.base.position(warped)


def speed_doubling_profile(packet_length_m: float, initial_speed_mps: float,
                           start_position_m: float,
                           halfway_offset_m: float | None = None,
                           ) -> PiecewiseConstantSpeed:
    """The Fig. 8 distortion: speed doubles when the second half passes.

    Args:
        packet_length_m: physical packet length on the object.
        initial_speed_mps: speed while the first half (preamble) passes.
        start_position_m: leading-edge position at t = 0 (negative:
            upstream of the receiver at the origin).
        halfway_offset_m: position of the receiver relative to origin;
            the speed change happens when the packet midpoint crosses it.
    """
    if packet_length_m <= 0.0:
        raise ValueError("packet length must be positive")
    receiver_x = 0.0 if halfway_offset_m is None else halfway_offset_m
    # The packet midpoint passes the receiver when the leading edge is
    # half a packet length beyond it.
    change_at = receiver_x + packet_length_m / 2.0
    return PiecewiseConstantSpeed(
        breakpoints_m=[change_at],
        speeds_mps=[initial_speed_mps, 2.0 * initial_speed_mps],
        start_position_m=start_position_m,
    )


def time_to_reach(profile: MotionProfile, target_position_m: float,
                  t_max_s: float = 3600.0) -> float:
    """Earliest time the leading edge reaches a target position.

    Assumes the profile is non-decreasing (true for all profiles here)
    and uses bisection.  On a :class:`ConstantSpeed` profile the search
    starts at the closed-form time instead; it returns the same float
    (see :func:`_first_reaching`).

    Raises:
        ValueError: if the target is not reached within ``t_max_s``.
    """
    if float(profile.position(0.0)) >= target_position_m:
        return 0.0
    if float(profile.position(t_max_s)) < target_position_m:
        raise ValueError(
            f"target {target_position_m} m not reached within {t_max_s} s")
    if type(profile) is ConstantSpeed:
        t0 = ((target_position_m - profile.start_position_m)
              / profile.speed_mps)
        # Above this floor, 100 halvings of [0, t_max_s] end on two
        # adjacent floats (2**-100 * t_max_s is far below one ulp of
        # t0), so the bisection returns the smallest float whose
        # position reaches the target: the float found from t0.
        if max(1e-6, t_max_s * 2.0**-32) < t0 < math.inf:
            return _first_reaching(profile, target_position_m, t0)
    lo, hi = 0.0, t_max_s
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if float(profile.position(mid)) < target_position_m:
            lo = mid
        else:
            hi = mid
    return hi


def _first_reaching(profile: MotionProfile, target_position_m: float,
                    t0: float) -> float:
    """The smallest float time whose position reaches the target.

    Brackets the answer by ulp steps that double outward from ``t0``,
    then bisects the bracket down to two adjacent floats.  Exact because
    ``x0 + v * t`` is monotone in float arithmetic.  The caller has
    checked that position 0 falls short of the target and that the
    horizon reaches it, so the outward search ends on either side.
    """
    def reaches(t: float) -> bool:
        return float(profile.position(t)) >= target_position_m

    step = math.ulp(t0)
    if reaches(t0):
        hi, lo = t0, t0 - step
        while lo > 0.0 and reaches(lo):
            hi, step = lo, 2.0 * step
            lo = t0 - step
        lo = max(lo, 0.0)
    else:
        lo, hi = t0, t0 + step
        while not reaches(hi):
            lo, step = hi, 2.0 * step
            hi = t0 + step
    while True:
        mid = (lo + hi) / 2.0
        if mid <= lo or mid >= hi:
            return hi
        if reaches(mid):
            hi = mid
        else:
            lo = mid
