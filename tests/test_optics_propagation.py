"""Tests for repro.optics.propagation."""

import numpy as np
import pytest

from repro.optics.geometry import FieldOfView
from repro.optics.propagation import (
    absolute_gain,
    exact_patch_transfer_weights,
    footprint_kernel,
    patch_transfer_weights,
)


class TestPatchTransfer:
    def test_zero_outside_footprint(self):
        fov = FieldOfView(30.0)
        xs = np.array([-1.0, 1.0])  # far outside at h = 0.5
        w = patch_transfer_weights(xs, 0.5, fov)
        assert np.all(w == 0.0)

    def test_peak_at_nadir(self):
        fov = FieldOfView(40.0)
        xs = np.linspace(-0.3, 0.3, 301)
        w = patch_transfer_weights(xs, 0.5, fov)
        assert np.argmax(w) == len(xs) // 2

    def test_symmetric(self):
        fov = FieldOfView(40.0)
        xs = np.linspace(-0.3, 0.3, 301)
        w = patch_transfer_weights(xs, 0.5, fov)
        assert np.allclose(w, w[::-1])

    def test_bad_height(self):
        with pytest.raises(ValueError):
            patch_transfer_weights(np.array([0.0]), 0.0, FieldOfView(30.0))


class TestExactTransfer:
    def test_same_support_as_chord(self):
        fov = FieldOfView(30.0)
        xs = np.linspace(-0.2, 0.2, 101)
        chord = patch_transfer_weights(xs, 0.5, fov)
        exact = exact_patch_transfer_weights(xs, 0.5, fov)
        assert np.array_equal(chord > 0, exact > 0)

    def test_normalised_shapes_agree(self):
        """Chord approximation vs exact lateral quadrature: close."""
        fov = FieldOfView(24.0)
        xs = np.linspace(-0.06, 0.06, 121)
        chord = patch_transfer_weights(xs, 0.25, fov)
        exact = exact_patch_transfer_weights(xs, 0.25, fov)
        chord = chord / chord.sum()
        exact = exact / exact.sum()
        assert float(np.abs(chord - exact).max()) < 0.15 * float(chord.max())

    def test_lateral_resolution_validation(self):
        with pytest.raises(ValueError):
            exact_patch_transfer_weights(np.array([0.0]), 0.5,
                                         FieldOfView(30.0), n_lateral=2)


class TestFootprintKernel:
    def test_weights_normalised(self):
        kern = footprint_kernel(0.5, FieldOfView(24.0), 0.002)
        assert kern.weights.sum() == pytest.approx(1.0)
        assert np.all(kern.weights >= 0.0)

    def test_gain_positive(self):
        kern = footprint_kernel(0.5, FieldOfView(24.0), 0.002)
        assert kern.gain > 0.0

    def test_gain_height_invariant_for_fixed_fov(self):
        """The effective solid angle does not change with height; the
        amplitude decay of the indoor channel comes from the lamp's
        inverse-square law, not from the footprint transfer."""
        fov = FieldOfView(24.0)
        g1 = footprint_kernel(0.25, fov, 0.001).gain
        g2 = footprint_kernel(0.75, fov, 0.003).gain
        assert g1 == pytest.approx(g2, rel=0.05)

    def test_effective_width_scales_with_height(self):
        fov = FieldOfView(24.0)
        w1 = footprint_kernel(0.25, fov, 0.001).effective_width()
        w2 = footprint_kernel(0.5, fov, 0.002).effective_width()
        assert w2 == pytest.approx(2.0 * w1, rel=0.05)

    def test_wider_fov_wider_kernel(self):
        w_narrow = footprint_kernel(0.5, FieldOfView(16.0), 0.002).effective_width()
        w_wide = footprint_kernel(0.5, FieldOfView(60.0), 0.002).effective_width()
        assert w_wide > 2.0 * w_narrow

    def test_exact_method(self):
        kern = footprint_kernel(0.5, FieldOfView(24.0), 0.002, method="exact")
        assert kern.weights.sum() == pytest.approx(1.0)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            footprint_kernel(0.5, FieldOfView(24.0), 0.002, method="magic")

    def test_coarse_step_rejected(self):
        with pytest.raises(ValueError):
            footprint_kernel(0.1, FieldOfView(16.0), 0.1)

    def test_memoised_kernel_is_shared_and_read_only(self):
        """Equal arguments share one kernel, so no caller may write to
        its arrays."""
        kern = footprint_kernel(0.4, FieldOfView(30.0), 0.002)
        assert footprint_kernel(0.4, FieldOfView(30.0), 0.002) is kern
        for arr in (kern.offsets, kern.weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestAbsoluteGain:
    def test_matches_kernel_gain(self):
        fov = FieldOfView(24.0)
        g_direct = absolute_gain(0.5, fov)
        g_kernel = footprint_kernel(0.5, fov, 0.0005).gain
        assert g_direct == pytest.approx(g_kernel, rel=0.02)

    def test_wider_fov_more_gain(self):
        assert absolute_gain(0.5, FieldOfView(60.0)) > absolute_gain(
            0.5, FieldOfView(16.0))
