"""Propagation: geometric transfer from ground patches to the receiver.

Section 3 notes that increasing receiver height is doubly detrimental:
the signal strength decays with distance *and* the FoV footprint grows,
admitting interference.  Both effects come out of the same geometric
transfer implemented here.

For a receiver at height ``h`` looking straight down, a thin ground strip
at longitudinal offset ``x`` (spanning the footprint laterally) transfers
luminance to illuminance at the detector with weight

``g(x) = chord(x) * cos(theta_e) * cos(theta_a) / d^2 * A_fov(theta)``

where ``d = sqrt(x^2 + h^2)``, the emission and arrival cosines are both
``h / d`` for a horizontal patch and a nadir-pointing receiver, ``chord``
is the lateral extent of the footprint disc at ``x`` and ``A_fov`` the
receiver's angular acceptance.  The normalised version of ``g`` is the
**footprint kernel**: convolving the tag's reflectance profile with it
produces the blurred waveform the receiver actually sees; the integral of
``g`` provides the absolute gain that makes higher receivers see weaker
signals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import FieldOfView, GroundFootprint

__all__ = [
    "patch_transfer_weights",
    "exact_patch_transfer_weights",
    "footprint_kernel",
    "FootprintKernel",
    "absolute_gain",
]


def patch_transfer_weights(xs: np.ndarray, height: float,
                           fov: FieldOfView) -> np.ndarray:
    """Unnormalised transfer weight ``g(x)`` for strips at offsets ``xs``.

    Args:
        xs: longitudinal offsets from the receiver's nadir point (m).
        height: receiver height above the plane (m), > 0.
        fov: receiver field of view.

    Returns:
        Non-negative weights, zero outside the footprint.
    """
    if height <= 0.0:
        raise ValueError(f"height must be positive, got {height}")
    xs = np.asarray(xs, dtype=float)
    footprint = GroundFootprint.from_receiver(height, fov)
    chord = np.clip(footprint.radius**2 - xs**2, 0.0, None)
    chord = 2.0 * np.sqrt(chord)
    d2 = xs**2 + height**2
    cos_theta = height / np.sqrt(d2)
    off_axis = np.arccos(np.clip(cos_theta, -1.0, 1.0))
    acceptance = fov.acceptance_array(off_axis)
    return chord * cos_theta**2 / d2 * acceptance


@dataclass(frozen=True)
class FootprintKernel:
    """A sampled, normalised footprint kernel plus its absolute gain.

    Attributes:
        offsets: sample offsets (m), uniformly spaced, centred on 0.
        weights: kernel weights summing to 1.
        gain: integral of the unnormalised transfer (m^2-ish units); the
            factor by which patch luminance maps to detector illuminance
            after normalisation.
        height: receiver height the kernel was built for.
    """

    offsets: np.ndarray
    weights: np.ndarray
    gain: float
    height: float

    @property
    def width(self) -> float:
        """Support width of the kernel (m) — the blur length scale."""
        nz = np.nonzero(self.weights > 0.0)[0]
        if len(nz) == 0:
            return 0.0
        dx = self.offsets[1] - self.offsets[0] if len(self.offsets) > 1 else 0.0
        return float((nz[-1] - nz[0] + 1) * dx)

    def effective_width(self) -> float:
        """RMS-equivalent width: ``sqrt(12) * std`` of the weight density.

        For a uniform kernel this equals the support width, making it a
        resolution-comparable measure of blur for any kernel shape.
        """
        mean = float(np.sum(self.weights * self.offsets))
        var = float(np.sum(self.weights * (self.offsets - mean) ** 2))
        return math.sqrt(12.0 * var)


def exact_patch_transfer_weights(xs: np.ndarray, height: float,
                                 fov: FieldOfView,
                                 n_lateral: int = 65) -> np.ndarray:
    """Transfer weight with exact lateral (y) quadrature.

    :func:`patch_transfer_weights` approximates the lateral integral by
    the footprint chord times the on-axis (y = 0) transfer.  Here the
    ``cos^2(theta) / d^2 * acceptance`` term is integrated across the
    footprint chord properly — this is the full 2-D ray-integration
    model, collapsed to a 1-D kernel (strips span the footprint
    laterally, so the lateral structure is source-free).

    Args:
        xs: longitudinal offsets (m).
        height: receiver height (m), > 0.
        fov: receiver field of view.
        n_lateral: quadrature points across the chord.
    """
    if height <= 0.0:
        raise ValueError(f"height must be positive, got {height}")
    if n_lateral < 3:
        raise ValueError(f"need at least 3 lateral points, got {n_lateral}")
    xs = np.asarray(xs, dtype=float)
    footprint = GroundFootprint.from_receiver(height, fov)
    radius = footprint.radius
    out = np.zeros_like(xs)
    half_chords = np.sqrt(np.clip(radius**2 - xs**2, 0.0, None))
    for i, (x, half) in enumerate(zip(xs, half_chords)):
        if half <= 0.0:
            continue
        ys = np.linspace(-half, half, n_lateral)
        d2 = x**2 + ys**2 + height**2
        cos_theta = height / np.sqrt(d2)
        off_axis = np.arccos(np.clip(cos_theta, -1.0, 1.0))
        acc = fov.acceptance_array(off_axis)
        integrand = cos_theta**2 / d2 * acc
        out[i] = np.trapezoid(integrand, ys)
    return out


@lru_cache(maxsize=128)
def footprint_kernel(height: float, fov: FieldOfView,
                     sample_step: float,
                     method: str = "chord") -> FootprintKernel:
    """Build the normalised footprint kernel for a receiver.

    Memoised per process on its arguments, and the kernel's arrays are
    read-only because every caller shares them: the receivers of an
    array, and every capture at one height and field of view, reuse
    one kernel.

    Args:
        height: receiver height (m), > 0.
        fov: receiver field of view.
        sample_step: spatial sampling interval (m); must resolve the
            footprint (at least ~4 samples across it).
        method: ``"chord"`` (fast analytic lateral weight) or ``"exact"``
            (full lateral quadrature — the ray-integration model).

    Raises:
        ValueError: if the step cannot resolve the footprint or the
            method is unknown.
    """
    if sample_step <= 0.0:
        raise ValueError(f"sample step must be positive, got {sample_step}")
    if method not in ("chord", "exact"):
        raise ValueError(f"unknown kernel method {method!r}")
    footprint = GroundFootprint.from_receiver(height, fov)
    radius = footprint.radius
    n_half = int(math.ceil(radius / sample_step))
    if n_half < 2:
        raise ValueError(
            f"sample step {sample_step} m too coarse for footprint radius "
            f"{radius:.4f} m; use a step <= {radius / 2:.5f} m")
    offsets = np.arange(-n_half, n_half + 1, dtype=float) * sample_step
    if method == "chord":
        raw = patch_transfer_weights(offsets, height, fov)
    else:
        raw = exact_patch_transfer_weights(offsets, height, fov)
    total = raw.sum()
    if total <= 0.0:
        raise ValueError("footprint kernel has zero total weight")
    # Absolute gain: integral of g(x) dx — luminance (cd/m^2) times this
    # gives illuminance (lux) at the detector.
    gain = float(total * sample_step)
    weights = raw / total
    for arr in (offsets, weights):
        arr.flags.writeable = False
    return FootprintKernel(offsets=offsets, weights=weights,
                           gain=gain, height=height)


def absolute_gain(height: float, fov: FieldOfView,
                  n_samples: int = 2001) -> float:
    """Integral of the transfer weight over the footprint.

    The gain *grows* with footprint area but *shrinks* with ``1/d^2``;
    for a fixed FoV the two partially cancel, leaving a net decay with
    height — the signal-amplitude part of the paper's height trade-off.

    Args:
        height: receiver height (m), > 0.
        fov: receiver field of view.
        n_samples: integration resolution.
    """
    if height <= 0.0:
        raise ValueError(f"height must be positive, got {height}")
    footprint = GroundFootprint.from_receiver(height, fov)
    xs = np.linspace(-footprint.radius, footprint.radius, n_samples)
    step = xs[1] - xs[0]
    return float(patch_transfer_weights(xs, height, fov).sum() * step)
