"""Tests for repro.dsp.dtw."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.dtw import (
    VECTORIZE_MIN_CELLS,
    DtwResult,
    _cost_matrix,
    _cost_matrix_vectorized,
    dtw,
    dtw_distance,
)


class TestBasicProperties:
    def test_identity_zero(self):
        x = np.array([0.0, 1.0, 0.5, 0.2])
        assert dtw_distance(x, x) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=40)
        b = rng.normal(size=40)
        assert dtw_distance(a, b) == pytest.approx(dtw_distance(b, a))

    def test_non_negative(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=30), rng.normal(size=25)
        assert dtw_distance(a, b) >= 0.0

    def test_constant_offset_scales(self):
        a = np.zeros(20)
        b = np.full(20, 0.5)
        # Every matched pair contributes 0.5 along the diagonal path.
        assert dtw_distance(a, b) == pytest.approx(10.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dtw_distance(np.array([]), np.array([1.0]))


class TestWarpingInvariance:
    def test_time_stretch_cheap(self):
        """DTW must be far more tolerant of stretching than Euclidean —
        this is exactly why the paper picks it for the variable-speed
        distortion (Section 4.2)."""
        t1 = np.linspace(0.0, 1.0, 100)
        t2 = np.linspace(0.0, 1.0, 160)  # stretched copy
        a = np.sin(2 * np.pi * 2 * t1)
        b = np.sin(2 * np.pi * 2 * t2)
        stretched = dtw_distance(a, b, band_fraction=0.5)
        different = dtw_distance(a, -b, band_fraction=0.5)
        assert stretched < 0.2 * different

    def test_piecewise_speed_change_classified(self):
        """A mid-sequence speed doubling (the Fig. 8 distortion) stays
        closer to its own template than to a different code."""
        t = np.linspace(0.0, 1.0, 200)
        template_a = np.sin(2 * np.pi * 3 * t)
        template_b = np.sign(np.sin(2 * np.pi * 3 * t))
        # Distort template_a: second half compressed 2x.
        first = template_a[:100]
        second = template_a[100::2]
        distorted = np.concatenate([first, second])
        d_own = dtw_distance(distorted, template_a, band_fraction=0.4)
        d_other = dtw_distance(distorted, template_b, band_fraction=0.4)
        assert d_own < d_other


class TestBand:
    def test_band_covers_length_mismatch(self):
        a = np.sin(np.linspace(0, 6, 50))
        b = np.sin(np.linspace(0, 6, 120))
        # Narrow band would be infeasible without the automatic widening.
        result = dtw(a, b, band_fraction=0.05)
        assert np.isfinite(result.distance)

    def test_unconstrained_never_worse(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=30)
        b = rng.normal(size=30)
        assert dtw_distance(a, b, band_fraction=None) <= dtw_distance(
            a, b, band_fraction=0.1) + 1e-12

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            dtw(np.zeros(5), np.zeros(5), band_fraction=0.0)


_signal = st.lists(st.floats(min_value=-1e6, max_value=1e6,
                             allow_nan=False, allow_infinity=False),
                   min_size=1, max_size=48)
_band_fractions = st.one_of(st.none(),
                            st.floats(min_value=0.02, max_value=0.9,
                                      allow_nan=False))


class TestVectorizedEquivalence:
    """The wavefront kernel is a bit-identical drop-in for the loop."""

    @given(xs=_signal, ys=_signal, band_fraction=_band_fractions)
    @settings(max_examples=60, deadline=None)
    def test_distance_normalized_and_path_identical(self, xs, ys,
                                                    band_fraction):
        a, b = np.asarray(xs), np.asarray(ys)
        ref = dtw(a, b, band_fraction=band_fraction, return_path=True,
                  implementation="reference")
        vec = dtw(a, b, band_fraction=band_fraction, return_path=True,
                  implementation="vectorized")
        assert vec.distance == ref.distance
        assert vec.normalized_distance == ref.normalized_distance
        assert vec.path == ref.path

    @given(xs=_signal, ys=_signal,
           band=st.one_of(st.none(), st.integers(min_value=1,
                                                 max_value=30)))
    @settings(max_examples=60, deadline=None)
    def test_accumulated_cost_matrices_identical(self, xs, ys, band):
        """Every cell — including the unreachable inf cells outside the
        band — matches, not just the optimum."""
        a, b = np.asarray(xs), np.asarray(ys)
        if band is not None:
            band = max(band, abs(len(a) - len(b)) + 1)
        ref = _cost_matrix(a, b, band)
        vec = _cost_matrix_vectorized(a, b, band)
        assert ref.shape == vec.shape
        assert np.array_equal(ref, vec)

    def test_auto_picks_vectorized_above_crossover(self, monkeypatch):
        import importlib

        dtw_mod = importlib.import_module("repro.dsp.dtw")
        calls = []
        real = dtw_mod._cost_matrix_vectorized
        monkeypatch.setattr(dtw_mod, "_cost_matrix_vectorized",
                            lambda *a: calls.append(1) or real(*a))
        n = int(np.ceil(np.sqrt(VECTORIZE_MIN_CELLS)))
        big = np.linspace(0.0, 1.0, n)
        dtw(big, big, band_fraction=None)
        assert calls, "auto mode should dispatch to the wavefront kernel"
        calls.clear()
        dtw(np.zeros(4), np.zeros(4))
        assert not calls, "tiny inputs should stay on the loop"
        # A narrow band shrinks the evaluated cells below the crossover
        # even when n*m alone would clear it.
        dtw(big, big, band_fraction=0.05)
        assert not calls, "narrow-band inputs should stay on the loop"

    def test_unknown_implementation_rejected(self):
        for name in ("numba", "compiled"):
            with pytest.raises(ValueError):
                dtw(np.zeros(4), np.zeros(4), implementation=name)


class TestPath:
    def test_path_endpoints(self):
        a = np.array([0.0, 1.0, 0.0])
        b = np.array([0.0, 0.5, 1.0, 0.0])
        result = dtw(a, b, return_path=True)
        assert result.path is not None
        assert result.path[0] == (0, 0)
        assert result.path[-1] == (len(a) - 1, len(b) - 1)

    def test_path_monotone(self):
        rng = np.random.default_rng(5)
        result = dtw(rng.normal(size=20), rng.normal(size=25),
                     return_path=True)
        steps = np.diff(np.array(result.path), axis=0)
        assert np.all(steps >= 0)
        assert np.all(steps.sum(axis=1) >= 1)

    def test_normalized_distance(self):
        a = np.zeros(10)
        b = np.full(10, 1.0)
        result = dtw(a, b)
        assert result.normalized_distance == pytest.approx(
            result.distance / 10.0)

    def test_path_omitted_by_default(self):
        assert dtw(np.zeros(5), np.zeros(5)).path is None
