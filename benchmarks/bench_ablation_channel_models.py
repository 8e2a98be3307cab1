"""Ablation — chord-approximation vs exact-lateral (ray) channel model.

The simulator's default is the fast convolution kernel (analytic chord
weighting); this bench cross-validates it against the full lateral ray
quadrature, measuring both the waveform agreement and the speed gap
that justifies the default.
"""

import numpy as np

from repro.channel.simulator import ChannelSimulator, SimulatorConfig
from repro.channel.mobility import ConstantSpeed
from repro.channel.scene import MovingObject, PassiveScene
from repro.hardware.frontend import FovCap, ReceiverFrontEnd
from repro.hardware.photodiode import PdGain, Photodiode
from repro.optics.geometry import Vec3
from repro.optics.sources import LedLamp
from repro.tags.packet import Packet
from repro.tags.surface import TagSurface


def _scene():
    tag = TagSurface.from_packet(
        Packet.from_bitstring("10", symbol_width_m=0.04))
    return PassiveScene(
        source=LedLamp(position=Vec3(0.12, 0.0, 0.25),
                       luminous_intensity=2.0),
        receiver_height_m=0.25,
        objects=[MovingObject(tag, ConstantSpeed(0.08, -0.35), "tag")])


def _frontend():
    return ReceiverFrontEnd(detector=Photodiode.opt101(gain=PdGain.G1),
                            cap=FovCap.paper_cap(), seed=1)


def _waveform(method):
    sim = ChannelSimulator(_scene(), _frontend(),
                           SimulatorConfig(sample_rate_hz=400.0,
                                           include_noise=False,
                                           kernel_method=method))
    return sim.optical_pass().normalized().samples


def test_ablation_chord_kernel_speed(benchmark):
    """Benchmark the default (chord) model; agreement asserted below."""
    chord = benchmark(lambda: _waveform("chord"))
    exact = _waveform("exact")
    n = min(len(chord), len(exact))
    rmse = float(np.sqrt(np.mean((chord[:n] - exact[:n]) ** 2)))
    print(f"\n[ablation/channel-models] chord-vs-exact normalised RMSE = "
          f"{rmse:.4f} (must be < 0.05)")
    assert rmse < 0.05


def test_ablation_exact_kernel_speed(benchmark):
    """Benchmark the ray-quadrature model for the speed comparison."""
    exact = benchmark(lambda: _waveform("exact"))
    assert len(exact) > 0
