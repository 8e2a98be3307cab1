"""The passive-VLC channel simulator.

This is the substrate that replaces the paper's physical testbed.  For
each time sample it computes the illuminance arriving at the receiver
aperture, expressed in **ambient-referred lux** so that saturation and
sensitivity behave exactly as tabulated in Fig. 11:

``E_in(t) = a_t * E_amb(t) + s_t * C * Lbar(t) * T_atm``

where

* ``E_amb`` is the scene's noise floor (the lux-meter reading the paper
  quotes: 100/450/3700/5500/6200 lux, ...), attenuated by the cap's
  ambient rejection ``a_t``;
* ``Lbar`` is the footprint-weighted luminance of the ground/tag/car
  below the receiver: the tag's effective-reflectance profile convolved
  with the footprint kernel times the local ground illuminance — this
  term carries the symbols and the FoV blur of Fig. 2(b);
* ``C`` converts detector-level signal flux into ambient-equivalent lux
  (``2 * pi * Omega_eff / Omega_fov``): the saturation specs were
  measured with a uniform field filling the acceptance cone, so a
  footprint signal must be referred through the same aperture;
* ``T_atm`` is the atmospheric signal attenuation and ``s_t`` the cap's
  in-FoV transmission.

The optical waveform is then pushed through the receiver front end
(detector response/saturation/noise, amplifier, ADC) to produce the RSS
sample stream.

Two kernels are available (``"chord"`` fast / ``"exact"`` full lateral
ray quadrature); the ablation benchmark quantifies their agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..hardware.frontend import ReceiverFrontEnd
from ..optics.propagation import FootprintKernel, footprint_kernel
from ..optics.reflection import effective_reflectance
from .scene import MovingObject, PassiveScene
from .trace import SignalTrace

__all__ = ["SimulatorConfig", "ChannelSimulator"]


@dataclass(frozen=True)
class SimulatorConfig:
    """Numerical knobs of the channel simulation.

    Attributes:
        sample_rate_hz: RSS sampling rate; the paper's outdoor runs use
            2 kS/s, parameter sweeps can drop this for speed.
        spatial_step_m: kernel sampling interval; ``None`` picks
            ``min(footprint_radius / 8, finest_feature / 4)``.
        kernel_method: ``"chord"`` or ``"exact"`` (see propagation).
        include_noise: disable to obtain the noiseless optical truth.
        seed: RNG seed for receiver noise.
        profile_oversample: how many profile samples per kernel step.
        rho_chunk_elements: peak size (elements) of the per-chunk
            ``(time, offset)`` reflectance matrix; long captures are
            evaluated in time-slices of at most this many elements so
            memory stays bounded no matter the duration.  The default
            (4M elements = 32 MB of float64 per temporary) keeps every
            paper-scale capture in a single chunk.
    """

    sample_rate_hz: float = 2_000.0
    spatial_step_m: float | None = None
    kernel_method: str = "chord"
    include_noise: bool = True
    seed: int | None = 1234
    profile_oversample: int = 2
    rho_chunk_elements: int = 4_000_000

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0.0:
            raise ValueError("sample rate must be positive")
        if self.spatial_step_m is not None and self.spatial_step_m <= 0.0:
            raise ValueError("spatial step must be positive")
        if self.kernel_method not in ("chord", "exact"):
            raise ValueError(f"unknown kernel method {self.kernel_method!r}")
        if self.profile_oversample < 1:
            raise ValueError("profile oversample must be >= 1")
        if self.rho_chunk_elements < 1:
            raise ValueError("rho chunk size must be >= 1")


class ChannelSimulator:
    """Simulates one scene as seen by one receiver front end.

    The scene and config are treated as immutable after construction:
    expensive scene-derived quantities (illumination geometry, object
    reflectance profiles, the static ground-illuminance field, the
    nominal noise floor) are computed once and cached on the instance,
    so repeated captures pay only for the time-dependent physics.  The
    pure optics behind them are memoised per process on their frozen
    arguments: :func:`~repro.optics.propagation.footprint_kernel`
    (shared, read-only arrays) and
    :func:`~repro.optics.reflection.effective_reflectance`, so
    simulators of one height, field of view and lighting share them.
    """

    def __init__(self, scene: PassiveScene, frontend: ReceiverFrontEnd,
                 config: SimulatorConfig | None = None) -> None:
        self.scene = scene
        self.frontend = frontend
        self.config = config or SimulatorConfig()
        self._kernel: FootprintKernel | None = None
        self._geometry = None
        self._profiles: dict[tuple[int, float],
                             tuple[np.ndarray, np.ndarray]] = {}
        self._static_field: tuple[np.ndarray, float] | None = None
        self._noise_floor: float | None = None

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def _auto_step(self) -> float:
        """Pick a spatial step resolving both footprint and strips."""
        fov = self.frontend.effective_fov
        radius = self.scene.receiver_height_m * math.tan(fov.half_angle_rad)
        step = radius / 8.0
        for obj in self.scene.objects:
            feature = getattr(obj.surface, "min_feature_m", None)
            if feature:
                step = min(step, feature / 4.0)
        # Keep the kernel a sane size even for pathological inputs.
        return max(step, radius / 512.0)

    @property
    def kernel(self) -> FootprintKernel:
        """The (cached) footprint kernel for this scene + receiver."""
        if self._kernel is None:
            step = self.config.spatial_step_m or self._auto_step()
            self._kernel = footprint_kernel(
                self.scene.receiver_height_m, self.frontend.effective_fov,
                step, method=self.config.kernel_method)
        return self._kernel

    @property
    def footprint_radius_m(self) -> float:
        """Footprint radius on the ground."""
        fov = self.frontend.effective_fov
        return self.scene.receiver_height_m * math.tan(fov.half_angle_rad)

    @property
    def noise_floor_lux(self) -> float:
        """The scene's (cached) nominal noise floor, in lux."""
        if self._noise_floor is None:
            self._noise_floor = self.scene.nominal_noise_floor_lux()
        return self._noise_floor

    def ambient_equivalent_coupling(self) -> float:
        """Factor ``C`` converting footprint luminance to ambient lux.

        A uniform ambient field of E lux delivers detector flux
        proportional to ``E * Omega_fov / (2 pi)``; the footprint signal
        delivers ``Omega_eff * Lbar``.  Referring the signal to ambient
        units therefore multiplies by ``2 pi * Omega_eff / Omega_fov``.
        """
        fov = self.frontend.effective_fov
        omega_fov = 2.0 * math.pi * (1.0 - math.cos(fov.half_angle_rad))
        return 2.0 * math.pi * self.kernel.gain / omega_fov

    # ------------------------------------------------------------------
    # Optical model
    # ------------------------------------------------------------------
    def illumination_geometry(self):
        """The (cached) source -> patch -> receiver geometry."""
        if self._geometry is None:
            self._geometry = self.scene.illumination_geometry()
        return self._geometry

    def _object_profile(self, obj: MovingObject, du: float,
                        geometry) -> tuple[np.ndarray, np.ndarray]:
        """One object's reflectance profile on a fine grid (cached).

        The profile depends only on the surface, the sampling step and
        the scene geometry — none of which change over the simulator's
        lifetime — so each object is sampled once and reused by every
        subsequent capture.
        """
        key = (id(obj), du)
        cached = self._profiles.get(key)
        if cached is None:
            length = obj.surface.length_m
            n = max(4, int(math.ceil(length / du)) + 1)
            us = np.linspace(0.0, length, n)
            profile = obj.surface.reflectance_samples(us, geometry)
            cached = (us, np.asarray(profile, dtype=float))
            self._profiles[key] = cached
        return cached

    def _static_ground_field(self, offsets: np.ndarray,
                             ) -> tuple[np.ndarray, float]:
        """``(E_static(x), rho_ground)``, cached per simulator.

        Separable illumination: ``E(x, t) = E_static(x) * flicker(t)``.
        """
        if self._static_field is None:
            flick0 = float(np.asarray(self.scene.source.flicker(0.0)))
            if flick0 <= 0.0:
                raise RuntimeError("source flicker must be positive at t=0")
            e_static = (np.asarray(
                self.scene.source.ground_illuminance(offsets, 0.0),
                dtype=float) / flick0)
            rho_ground = effective_reflectance(self.scene.ground,
                                               self.illumination_geometry())
            self._static_field = (e_static, rho_ground)
        return self._static_field

    def _rho_block(self, t: np.ndarray, offsets: np.ndarray,
                   rho_ground: float, du: float) -> np.ndarray:
        """The ``(len(t), len(offsets))`` effective-reflectance matrix.

        Each object contributes ``fov_share`` times its profile where it
        covers the offset and times ``rho_ground`` elsewhere; the share
        no object covers sees the ground.  Only the covered cells are
        interpolated, each contribution is built in its object's local
        coordinate array, and the first one becomes the block.
        """
        geometry = self.illumination_geometry()
        total_share = sum(obj.fov_share for obj in self.scene.objects)
        uncovered = rho_ground * max(0.0, 1.0 - total_share)
        rho = None
        for obj in self.scene.objects:
            us, profile = self._object_profile(obj, du, geometry)
            local = obj.local_coordinates(offsets[None, :], t[:, None])
            inside = (local >= 0.0) & (local <= obj.surface.length_m)
            covered = np.interp(local[inside], us, profile)
            contribution = local
            contribution.fill(rho_ground)
            contribution[inside] = covered
            contribution *= obj.fov_share
            if rho is None:
                rho = contribution
                rho += uncovered
            else:
                rho += contribution
        if rho is None:
            return np.full((len(t), len(offsets)), uncovered)
        return rho

    def weighted_luminance(self, t: np.ndarray) -> np.ndarray:
        """Footprint-weighted luminance ``Lbar(t)`` (cd/m^2).

        The time x offset reflectance matrix is evaluated in time
        slices of at most ``config.rho_chunk_elements`` elements so
        arbitrarily long captures run in bounded memory.
        """
        t = np.asarray(t, dtype=float)
        kern = self.kernel
        offsets = kern.offsets + self.scene.receiver_x_m
        e_static, rho_ground = self._static_ground_field(offsets)
        flick = np.asarray(self.scene.source.flicker(t), dtype=float)

        weight_vec = kern.weights * e_static
        du = ((kern.offsets[1] - kern.offsets[0])
              / self.config.profile_oversample
              if self.scene.objects else 0.0)
        chunk = max(1, self.config.rho_chunk_elements // max(1, len(offsets)))
        weighted = np.empty(len(t), dtype=float)
        for lo in range(0, len(t), chunk):
            block = t[lo:lo + chunk]
            rho = self._rho_block(block, offsets, rho_ground, du)
            weighted[lo:lo + chunk] = rho @ weight_vec
        return weighted * flick

    def aperture_illuminance(self, t: np.ndarray) -> np.ndarray:
        """Ambient-referred illuminance at the receiver aperture (lux)."""
        t = np.asarray(t, dtype=float)
        ambient = np.asarray(self.scene.noise_floor_lux(t), dtype=float)
        ambient = np.broadcast_to(ambient, t.shape).astype(float)
        signal = (self.weighted_luminance(t)
                  * self.ambient_equivalent_coupling()
                  * self.scene.atmosphere.signal_attenuation(
                      self.scene.receiver_height_m))
        return (self.frontend.ambient_transmission * ambient
                + self.frontend.signal_transmission * signal)

    # ------------------------------------------------------------------
    # End-to-end capture
    # ------------------------------------------------------------------
    def time_grid(self, duration_s: float, t_start_s: float = 0.0) -> np.ndarray:
        """Uniform sample times for a capture window."""
        if duration_s <= 0.0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        n = max(2, int(round(duration_s * self.config.sample_rate_hz)))
        return t_start_s + np.arange(n) / self.config.sample_rate_hz

    def optical_trace(self, duration_s: float,
                      t_start_s: float = 0.0) -> SignalTrace:
        """The noiseless optical waveform (lux) before the receiver."""
        t = self.time_grid(duration_s, t_start_s)
        lux = self.aperture_illuminance(t)
        return SignalTrace(lux, self.config.sample_rate_hz, t_start_s,
                           meta=self._meta(kind="optical"))

    def respond(self, duration_s: float, t_start_s: float = 0.0,
                ) -> tuple[np.ndarray, np.ndarray]:
        """The seed-independent half of a capture: the front end's
        ``respond`` output ``(v0, sigma)`` over the window."""
        t = self.time_grid(duration_s, t_start_s)
        return self.frontend.respond(self.aperture_illuminance(t),
                                     self.config.sample_rate_hz)

    def digitize(self, v0: np.ndarray, sigma: np.ndarray,
                 seeds: list[int | None]) -> np.ndarray:
        """The seeded half, a row of RSS codes per seed: row ``r`` puts
        ``default_rng(seeds[r]).normal`` (zeros without noise) through
        the front end's ``digitize``, as a capture with that seed does."""
        noise = np.zeros((len(seeds), v0.shape[-1]))
        if self.config.include_noise:
            for row, seed in zip(noise, seeds):
                row[:] = np.random.default_rng(seed).normal(
                    0.0, 1.0, size=len(row))
        return self.frontend.digitize(
            v0, sigma, noise, self.config.sample_rate_hz).astype(float)

    def rss_trace(self, codes: np.ndarray, t_start_s: float) -> SignalTrace:
        """One row of :meth:`digitize` as a captured trace."""
        return SignalTrace(codes, self.config.sample_rate_hz, t_start_s,
                           meta=self._meta(kind="rss"))

    def capture(self, duration_s: float, t_start_s: float = 0.0) -> SignalTrace:
        """Run the scene through the receiver: RSS codes over time."""
        v0, sigma = self.respond(duration_s, t_start_s)
        return self.rss_trace(self.digitize(v0, sigma, [self.config.seed])[0],
                              t_start_s)

    def pass_window(self, margin_fraction: float = 0.3,
                    min_margin_s: float = 0.05) -> tuple[float, float]:
        """Time window covering every object's pass through the FoV.

        Returns:
            ``(t_start, duration)`` padded by a margin so the decoder
            sees the quiet baseline before and after the packet.
        """
        if not self.scene.objects:
            raise ValueError("scene has no moving objects")
        radius = self.footprint_radius_m
        enters, exits = [], []
        for obj in self.scene.objects:
            t_in, t_out = obj.entry_exit_times(
                radius, center_x_m=self.scene.receiver_x_m)
            enters.append(t_in)
            exits.append(t_out)
        t0, t1 = min(enters), max(exits)
        margin = max(min_margin_s, margin_fraction * (t1 - t0))
        return max(0.0, t0 - margin), (t1 - t0) + 2.0 * margin

    def capture_pass(self, margin_fraction: float = 0.3) -> SignalTrace:
        """Capture exactly one full pass of all objects."""
        t_start, duration = self.pass_window(margin_fraction)
        return self.capture(duration, t_start)

    def optical_pass(self, margin_fraction: float = 0.3) -> SignalTrace:
        """Noiseless optical waveform over one full pass."""
        t_start, duration = self.pass_window(margin_fraction)
        return self.optical_trace(duration, t_start)

    def _meta(self, kind: str) -> dict:
        return {
            "kind": kind,
            "source": self.scene.source.name,
            "receiver": self.frontend.describe(),
            "height_m": self.scene.receiver_height_m,
            "noise_floor_lux": self.noise_floor_lux,
            "footprint_radius_m": self.footprint_radius_m,
            "kernel_method": self.config.kernel_method,
            "objects": [obj.name for obj in self.scene.objects],
        }
