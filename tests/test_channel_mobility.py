"""Tests for repro.channel.mobility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.mobility import (
    KMH_TO_MPS,
    ConstantSpeed,
    LinearRamp,
    PiecewiseConstantSpeed,
    SpeedJitter,
    speed_doubling_profile,
    time_to_reach,
)

from . import reference_channel as reference


class TestConstantSpeed:
    def test_position(self):
        m = ConstantSpeed(2.0, start_position_m=-1.0)
        assert float(m.position(0.5)) == pytest.approx(0.0)

    def test_speed(self):
        m = ConstantSpeed(0.08)
        assert np.allclose(m.speed(np.linspace(0, 10, 5)), 0.08)

    def test_positive_speed_required(self):
        with pytest.raises(ValueError):
            ConstantSpeed(0.0)

    def test_paper_car_speed(self):
        assert 18.0 * KMH_TO_MPS == pytest.approx(5.0)


class TestPiecewise:
    def test_speed_changes_at_breakpoint(self):
        m = PiecewiseConstantSpeed(breakpoints_m=[1.0],
                                   speeds_mps=[1.0, 2.0],
                                   start_position_m=0.0)
        # Breakpoint reached at t = 1; after that speed is 2.
        assert float(m.position(1.0)) == pytest.approx(1.0)
        assert float(m.position(1.5)) == pytest.approx(2.0)
        assert float(m.speed(0.5)) == pytest.approx(1.0)
        assert float(m.speed(1.5)) == pytest.approx(2.0)

    def test_position_continuous(self):
        m = PiecewiseConstantSpeed(breakpoints_m=[0.5, 1.5],
                                   speeds_mps=[1.0, 3.0, 0.5],
                                   start_position_m=-0.5)
        t = np.linspace(0.0, 5.0, 2001)
        x = m.position(t)
        assert np.all(np.diff(x) > 0.0)
        assert float(np.abs(np.diff(x)).max()) < 0.02  # no jumps

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            PiecewiseConstantSpeed(breakpoints_m=[1.0], speeds_mps=[1.0])

    def test_breakpoints_sorted(self):
        with pytest.raises(ValueError):
            PiecewiseConstantSpeed(breakpoints_m=[2.0, 1.0],
                                   speeds_mps=[1.0, 1.0, 1.0])

    def test_breakpoints_ahead_of_start(self):
        with pytest.raises(ValueError):
            PiecewiseConstantSpeed(breakpoints_m=[0.0],
                                   speeds_mps=[1.0, 2.0],
                                   start_position_m=0.5)


class TestSpeedDoubling:
    def test_fig8_profile(self):
        """Speed doubles when the packet midpoint crosses the receiver."""
        m = speed_doubling_profile(packet_length_m=0.24,
                                   initial_speed_mps=0.08,
                                   start_position_m=-0.3)
        # Change point: leading edge at half a packet past the receiver.
        change_at = 0.12
        t_change = (change_at - (-0.3)) / 0.08
        assert float(m.speed(t_change - 0.1)) == pytest.approx(0.08)
        assert float(m.speed(t_change + 0.1)) == pytest.approx(0.16)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            speed_doubling_profile(0.0, 0.08, -0.3)


class TestLinearRamp:
    def test_constant_acceleration(self):
        m = LinearRamp(initial_speed_mps=1.0, acceleration_mps2=2.0)
        assert float(m.position(1.0)) == pytest.approx(2.0)
        assert float(m.speed(1.0)) == pytest.approx(3.0)

    def test_deceleration_stalls_without_reversing(self):
        m = LinearRamp(initial_speed_mps=1.0, acceleration_mps2=-0.5)
        x_stall = float(m.position(2.0))  # v hits 0 at t = 2
        assert float(m.position(10.0)) == pytest.approx(x_stall)
        assert float(m.speed(10.0)) == 0.0

    def test_positive_initial_speed(self):
        with pytest.raises(ValueError):
            LinearRamp(initial_speed_mps=0.0)


class TestSpeedJitter:
    def test_monotone_for_small_deviation(self):
        m = SpeedJitter(base=ConstantSpeed(1.0), relative_deviation=0.2,
                        wavelength_s=1.0, seed=4)
        t = np.linspace(0.0, 5.0, 2001)
        x = m.position(t)
        assert np.all(np.diff(x) > 0.0)

    def test_deterministic_per_seed(self):
        a = SpeedJitter(base=ConstantSpeed(1.0), seed=7)
        b = SpeedJitter(base=ConstantSpeed(1.0), seed=7)
        t = np.linspace(0.0, 3.0, 100)
        assert np.allclose(a.position(t), b.position(t))

    def test_deviation_bounds(self):
        with pytest.raises(ValueError):
            SpeedJitter(base=ConstantSpeed(1.0), relative_deviation=0.95)


class TestTimeToReach:
    def test_constant_speed(self):
        m = ConstantSpeed(2.0, start_position_m=0.0)
        assert time_to_reach(m, 4.0) == pytest.approx(2.0, abs=1e-6)

    def test_already_there(self):
        m = ConstantSpeed(1.0, start_position_m=5.0)
        assert time_to_reach(m, 4.0) == 0.0

    def test_unreachable(self):
        m = ConstantSpeed(0.001)
        with pytest.raises(ValueError):
            time_to_reach(m, 100.0, t_max_s=10.0)

    def test_piecewise(self):
        m = PiecewiseConstantSpeed(breakpoints_m=[1.0],
                                   speeds_mps=[1.0, 2.0])
        assert time_to_reach(m, 3.0) == pytest.approx(2.0, abs=1e-6)


class _ArrayTimeSpeed(ConstantSpeed):
    """``ConstantSpeed`` with the 0-d-array ``position`` it used to have."""

    def position(self, t):
        return (self.start_position_m
                + self.speed_mps * np.asarray(t, dtype=float))


def _reach(profile, target, t_max, search=time_to_reach):
    try:
        return search(profile, target, t_max)
    except ValueError:
        return ValueError


class TestFloatTimeExact:
    """Float-time ``ConstantSpeed`` reaches targets exactly as the
    array form, which bisects."""

    @given(speed=st.floats(1e-3, 60.0), start=st.floats(-50.0, 5.0),
           frac=st.floats(0.0, 1.0), ulps=st.integers(1, 4),
           t_max=st.sampled_from([2.5, 10.0, 3600.0]))
    @settings(max_examples=150, deadline=None)
    def test_time_to_reach_matches_array_time(self, speed, start, frac,
                                              ulps, t_max):
        new = ConstantSpeed(speed, start)
        old = _ArrayTimeSpeed(speed, start)
        end = float(old.position(t_max))
        targets = [start, end, start + frac * (end - start)]
        lo, below, above = start, end, end
        for _ in range(ulps):
            # A few ulps past the start and on both sides of the end.
            lo = float(np.nextafter(lo, np.inf))
            below = float(np.nextafter(below, -np.inf))
            above = float(np.nextafter(above, np.inf))
            targets += [lo, below, above]
        for target in targets:
            assert _reach(new, target, t_max) == _reach(old, target, t_max)
        for t in (0.0, frac * t_max, t_max):
            assert type(new.position(t)) is float
            assert new.position(t) == float(old.position(t))
        t = np.linspace(0.0, t_max, 7)
        assert new.position(t).tobytes() == old.position(t).tobytes()


class TestClosedFormReach:
    """A constant-speed search from the closed-form time returns the
    float the 100-step bisection returns."""

    @given(speed=st.one_of(st.floats(1e-3, 60.0), st.floats(1e-9, 1e-3)),
           start=st.floats(-50.0, 5.0),
           t_max=st.sampled_from([2.5, 10.0, 3600.0]),
           when=st.sampled_from(["anywhere", "near 1e-6 s", "near t_max"]),
           frac=st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                          st.floats(0.0, 1.0)),
           ulps=st.integers(-4, 4))
    @settings(max_examples=300, deadline=None)
    def test_matches_bisection(self, speed, start, t_max, when, frac,
                               ulps):
        t = {"anywhere": frac * t_max,
             "near 1e-6 s": 1e-6 * (0.9 + 0.2 * frac),
             "near t_max": t_max * (1.0 - 1e-6 * frac)}[when]
        profile = ConstantSpeed(speed, start)
        # A reachable position, then up to four ulps either side of it.
        target = profile.position(t)
        for _ in range(abs(ulps)):
            target = float(np.nextafter(target, np.copysign(np.inf, ulps)))
        assert (_reach(profile, target, t_max)
                == _reach(profile, target, t_max, reference.time_to_reach))
