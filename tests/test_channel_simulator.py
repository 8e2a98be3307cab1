"""Tests for repro.channel.simulator — the core substrate."""

import numpy as np
import pytest

from repro.channel.mobility import ConstantSpeed
from repro.channel.scene import MovingObject, PassiveScene
from repro.channel.simulator import ChannelSimulator, SimulatorConfig
from repro.hardware.frontend import FovCap, ReceiverFrontEnd
from repro.hardware.photodiode import PdGain, Photodiode
from repro.optics.sources import Sun
from repro.optics.materials import TARMAC
from repro.tags.packet import Packet
from repro.tags.surface import TagSurface

from .conftest import build_indoor_scene, build_outdoor_scene


def _receiver(seed=1):
    return ReceiverFrontEnd(detector=Photodiode.opt101(gain=PdGain.G1),
                            cap=FovCap.paper_cap(), seed=seed)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimulatorConfig(sample_rate_hz=0.0)
        with pytest.raises(ValueError):
            SimulatorConfig(spatial_step_m=-0.1)
        with pytest.raises(ValueError):
            SimulatorConfig(kernel_method="banana")
        with pytest.raises(ValueError):
            SimulatorConfig(profile_oversample=0)


class TestGeometry:
    def test_footprint_radius(self):
        sim = ChannelSimulator(build_indoor_scene(height_m=0.5), _receiver())
        fov = _receiver().effective_fov
        expected = 0.5 * np.tan(np.radians(fov.half_angle_deg))
        assert sim.footprint_radius_m == pytest.approx(expected)

    def test_kernel_cached(self):
        sim = ChannelSimulator(build_indoor_scene(), _receiver())
        assert sim.kernel is sim.kernel

    def test_ambient_equivalent_coupling_positive_and_stable(self):
        """C = 2*pi*Omega_eff/Omega_fov is an O(1) constant across
        heights and FoVs (derived in the method's docstring)."""
        couplings = []
        for h in (0.2, 0.5, 1.0):
            sim = ChannelSimulator(build_indoor_scene(height_m=h),
                                   _receiver())
            couplings.append(sim.ambient_equivalent_coupling())
        assert all(1.0 < c < 6.0 for c in couplings)
        assert max(couplings) / min(couplings) < 1.3


class TestOpticalWaveform:
    def test_flat_scene_constant(self):
        scene = PassiveScene(source=Sun(ground_lux=1000.0),
                             receiver_height_m=0.5, ground=TARMAC)
        sim = ChannelSimulator(scene, _receiver(),
                               SimulatorConfig(include_noise=False))
        t = np.linspace(0.0, 0.1, 128)
        lux = sim.aperture_illuminance(t)
        assert float(lux.std()) < 1e-6 * float(lux.mean())

    def test_tag_produces_modulation(self):
        sim = ChannelSimulator(build_indoor_scene(), _receiver(),
                               SimulatorConfig(include_noise=False,
                                               sample_rate_hz=500.0))
        trace = sim.optical_pass()
        assert trace.swing() > 0.1 * trace.samples.max()

    def test_high_symbol_brighter_than_low(self):
        """The aluminium strips must read above the napkin strips."""
        scene = build_indoor_scene(bits="00", symbol_width_m=0.05)
        sim = ChannelSimulator(scene, _receiver(),
                               SimulatorConfig(include_noise=False,
                                               sample_rate_hz=500.0))
        trace = sim.optical_pass()
        x = trace.normalized().samples
        # An alternating pattern: both levels visited.
        assert (x > 0.8).sum() > 10
        assert (x < 0.2).sum() > 10


class TestBlur:
    def test_higher_receiver_blurs_more(self):
        """Fig. 2(b): a wider footprint mixes neighbouring symbols."""
        def modulation_depth(height):
            scene = build_indoor_scene(bits="00", symbol_width_m=0.03,
                                       height_m=height)
            sim = ChannelSimulator(scene, _receiver(),
                                   SimulatorConfig(include_noise=False,
                                                   sample_rate_hz=500.0))
            trace = sim.optical_pass()
            x = trace.samples - trace.samples.min()
            return float(x.max())

        d_low = modulation_depth(0.2)
        d_high = modulation_depth(0.6)
        assert d_high < d_low

    def test_narrow_fov_resolves_better(self):
        scene = build_outdoor_scene(symbol_width_m=0.1, height_m=0.25)

        def depth(fe):
            sim = ChannelSimulator(scene, fe,
                                   SimulatorConfig(include_noise=False))
            tr = sim.optical_pass()
            x = tr.samples
            return float(x.max() - x.min()) / float(x.mean())

        wide = ReceiverFrontEnd(detector=Photodiode.opt101(gain=PdGain.G2))
        narrow = wide.with_cap()
        assert depth(narrow) > depth(wide)


class TestCapture:
    def test_deterministic(self):
        scene = build_indoor_scene()
        a = ChannelSimulator(scene, _receiver(seed=9),
                             SimulatorConfig(seed=9, sample_rate_hz=500.0))
        b = ChannelSimulator(scene, _receiver(seed=9),
                             SimulatorConfig(seed=9, sample_rate_hz=500.0))
        assert np.array_equal(a.capture_pass().samples,
                              b.capture_pass().samples)

    def test_counts_in_adc_range(self):
        sim = ChannelSimulator(build_outdoor_scene(),
                               ReceiverFrontEnd(
                                   detector=Photodiode.opt101(gain=PdGain.G1),
                                   seed=1),
                               SimulatorConfig(seed=1))
        trace = sim.capture_pass()
        assert trace.samples.min() >= 0
        assert trace.samples.max() <= 1023

    def test_meta_populated(self):
        sim = ChannelSimulator(build_indoor_scene(), _receiver(),
                               SimulatorConfig(sample_rate_hz=500.0))
        trace = sim.capture_pass()
        assert trace.meta["kind"] == "rss"
        assert trace.meta["height_m"] == 0.2
        assert "OPT101" in trace.meta["receiver"]

    def test_pass_window_covers_object(self):
        scene = build_indoor_scene()
        sim = ChannelSimulator(scene, _receiver(),
                               SimulatorConfig(sample_rate_hz=500.0))
        t_start, duration = sim.pass_window()
        obj = scene.objects[0]
        t_in, t_out = obj.entry_exit_times(sim.footprint_radius_m)
        assert t_start <= t_in
        assert t_start + duration >= t_out

    def test_pass_window_requires_objects(self):
        scene = PassiveScene(source=Sun(), receiver_height_m=0.5)
        sim = ChannelSimulator(scene, _receiver())
        with pytest.raises(ValueError):
            sim.pass_window()

    def test_bad_duration(self):
        sim = ChannelSimulator(build_indoor_scene(), _receiver())
        with pytest.raises(ValueError):
            sim.capture(0.0)


class TestKernelMethods:
    def test_chord_and_exact_agree(self):
        """The fast chord kernel matches the ray-integration kernel on a
        realistic waveform (the chord-vs-exact ablation bench measures
        the same agreement and the speed gap)."""
        scene = build_indoor_scene(bits="10", symbol_width_m=0.04)
        traces = {}
        for method in ("chord", "exact"):
            sim = ChannelSimulator(
                scene, _receiver(),
                SimulatorConfig(include_noise=False, sample_rate_hz=400.0,
                                kernel_method=method))
            traces[method] = sim.optical_pass().normalized().samples
        n = min(len(traces["chord"]), len(traces["exact"]))
        rmse = float(np.sqrt(np.mean(
            (traces["chord"][:n] - traces["exact"][:n]) ** 2)))
        assert rmse < 0.05


class TestMultiObject:
    def test_shares_mix_linearly(self):
        tag_h = TagSurface.from_packet(
            Packet.from_bitstring("00", symbol_width_m=0.08))
        scene_full = PassiveScene(
            source=Sun(ground_lux=1000.0), receiver_height_m=0.3,
            ground=TARMAC,
            objects=[MovingObject(tag_h, ConstantSpeed(0.5, -0.5), "a",
                                  fov_share=1.0)])
        scene_half = PassiveScene(
            source=Sun(ground_lux=1000.0), receiver_height_m=0.3,
            ground=TARMAC,
            objects=[MovingObject(tag_h, ConstantSpeed(0.5, -0.5), "a",
                                  fov_share=0.5)])
        fe = _receiver()
        cfg = SimulatorConfig(include_noise=False, sample_rate_hz=400.0)
        full = ChannelSimulator(scene_full, fe, cfg).optical_pass()
        half = ChannelSimulator(scene_half, fe, cfg).optical_pass()
        assert half.swing() == pytest.approx(full.swing() * 0.5, rel=0.15)


class TestHotPathCaching:
    """PR 3 perf work: cached scene-derived quantities and bounded-
    memory chunked evaluation must not change a single sample."""

    def test_rho_chunking_matches_one_shot(self):
        """A tiny chunk budget (many slices) reproduces the one-shot
        matrix product to machine precision.

        Exact bit equality is not guaranteed here: BLAS may reassociate
        the per-row reduction differently for different matrix heights.
        The *default* budget keeps paper-scale captures in one chunk,
        where the computation is literally the pre-chunking one.
        """
        scene = build_indoor_scene(bits="10")
        one_shot = ChannelSimulator(scene, _receiver(),
                                    SimulatorConfig(sample_rate_hz=500.0))
        chunked = ChannelSimulator(scene, _receiver(),
                                   SimulatorConfig(sample_rate_hz=500.0,
                                                   rho_chunk_elements=64))
        t = one_shot.time_grid(1.5)
        reference = one_shot.weighted_luminance(t)
        sliced = chunked.weighted_luminance(t)
        assert np.allclose(sliced, reference, rtol=1e-12, atol=0.0)

    def test_default_budget_single_chunk(self):
        """Paper-scale captures stay in one chunk under the default
        budget, so the default output is bit-identical by construction."""
        config = SimulatorConfig(sample_rate_hz=2000.0)
        sim = ChannelSimulator(build_indoor_scene(bits="10"), _receiver(),
                               config)
        n_offsets = len(sim.kernel.offsets)
        n_samples = len(sim.time_grid(*reversed(sim.pass_window())))
        assert config.rho_chunk_elements // n_offsets >= n_samples

    def test_chunk_budget_validated(self):
        with pytest.raises(ValueError):
            SimulatorConfig(rho_chunk_elements=0)

    def test_repeat_capture_identical_and_cached(self):
        """Back-to-back captures agree exactly and reuse the cached
        geometry/profile instead of recomputing them."""
        sim = ChannelSimulator(build_indoor_scene(bits="10"), _receiver(),
                               SimulatorConfig(sample_rate_hz=500.0,
                                               seed=7))
        first = sim.capture_pass()
        assert sim._geometry is not None
        assert sim._profiles and sim._static_field is not None
        geometry = sim._geometry
        second = sim.capture_pass()
        assert sim._geometry is geometry
        assert np.array_equal(first.samples, second.samples)

    def test_geometry_computed_once_per_capture_batch(self):
        """weighted_luminance derives the illumination geometry once —
        the old code asked the scene twice per call (once directly,
        once inside the profile sampling)."""
        scene = build_indoor_scene(bits="10")
        calls = []
        original = scene.illumination_geometry

        def counting():
            calls.append(1)
            return original()

        scene.illumination_geometry = counting
        sim = ChannelSimulator(scene, _receiver(),
                               SimulatorConfig(sample_rate_hz=500.0))
        sim.capture_pass()
        assert len(calls) == 1
        sim.capture_pass()
        assert len(calls) == 1

    def test_no_object_scene_unchanged(self):
        """The unified rho path covers object-free scenes too."""
        scene = build_indoor_scene()
        scene = PassiveScene(source=scene.source,
                             receiver_height_m=scene.receiver_height_m,
                             objects=[], ground=scene.ground,
                             atmosphere=scene.atmosphere)
        sim = ChannelSimulator(scene, _receiver(),
                               SimulatorConfig(sample_rate_hz=500.0))
        t = sim.time_grid(0.25)
        lum = sim.weighted_luminance(t)
        assert lum.shape == t.shape
        assert np.all(lum >= 0.0)
