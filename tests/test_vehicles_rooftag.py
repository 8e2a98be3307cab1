"""Tests for repro.vehicles.rooftag (tagged cars + two-phase decode)."""

import numpy as np
import pytest

from repro.channel.mobility import ConstantSpeed
from repro.channel.scene import MovingObject, PassiveScene
from repro.channel.simulator import ChannelSimulator, SimulatorConfig
from repro.hardware.frontend import ReceiverFrontEnd
from repro.hardware.led_receiver import LedReceiver
from repro.optics.geometry import Vec3
from repro.optics.materials import TARMAC
from repro.optics.reflection import IlluminationGeometry
from repro.optics.sources import Sun
from repro.tags.packet import Packet
from repro.vehicles.profiles import volvo_v40
from repro.vehicles.rooftag import TaggedCar, TwoPhaseDecoder, tagged_car_surface


def tagged_pass(bits="00", lux=6200.0, height=0.75, seed=3):
    packet = Packet.from_bitstring(bits, symbol_width_m=0.1)
    surface = TaggedCar(car=volvo_v40(), packet=packet).surface()
    receiver = ReceiverFrontEnd(detector=LedReceiver.red_5mm(), seed=seed)
    scene = PassiveScene(source=Sun(ground_lux=lux), receiver_height_m=height,
                         ground=TARMAC,
                         objects=[MovingObject(surface,
                                               ConstantSpeed(5.0, -1.5),
                                               "tagged-car")])
    sim = ChannelSimulator(scene, receiver,
                           SimulatorConfig(sample_rate_hz=2000.0, seed=seed))
    return sim.capture_pass()


#: The Section 5 illumination (cloudy 45-degree sun).
SUN_45 = IlluminationGeometry(
    incident_direction=Vec3(1.0, 0.0, -1.0).normalized(),
    view_direction=Vec3(0.0, 0.0, 1.0),
    diffuse_fraction=0.6,
)


class TestSurfaceComposition:
    def test_tag_on_roof(self):
        car = volvo_v40()
        packet = Packet.from_bitstring("00", symbol_width_m=0.1)
        surface = tagged_car_surface(car, packet)
        roof_start, _ = car.segment_span("roof")
        # Sample inside the tag's first HIGH strip.
        x_tag = roof_start + 0.05 + 0.05
        rho_tag = surface.reflectance_samples(np.array([x_tag]), SUN_45)[0]
        # Tag aluminium outshines bare roof paint.
        rho_roof = car.reflectance_samples(np.array([x_tag]), SUN_45)[0]
        assert rho_tag > rho_roof

    def test_length_is_car_length(self):
        car = volvo_v40()
        packet = Packet.from_bitstring("00", symbol_width_m=0.1)
        assert tagged_car_surface(car, packet).length_m == pytest.approx(
            car.length_m)

    def test_oversized_tag_rejected(self):
        car = volvo_v40()
        long_packet = Packet.from_bitstring("00000000", symbol_width_m=0.1)
        with pytest.raises(ValueError, match="roof"):
            tagged_car_surface(car, long_packet)

    def test_tag_span_accessor(self):
        tc = TaggedCar(car=volvo_v40(),
                       packet=Packet.from_bitstring("00", symbol_width_m=0.1))
        start, end = tc.tag_span_m()
        roof_start, roof_end = tc.car.segment_span("roof")
        assert roof_start < start < end <= roof_end


class TestTwoPhaseDecoder:
    def test_decodes_tagged_car(self):
        result = TwoPhaseDecoder().decode(tagged_pass("00"), n_data_symbols=4)
        assert result.bit_string() == "00"

    def test_decodes_other_code(self):
        result = TwoPhaseDecoder().decode(tagged_pass("10"), n_data_symbols=4)
        assert result.bit_string() == "10"

    def test_try_decode_returns_none_on_failure(self):
        from repro.channel.trace import SignalTrace

        flat = SignalTrace(np.full(2000, 100.0), 2000.0)
        assert TwoPhaseDecoder().try_decode(flat) is None

    def test_missing_long_preamble_raises(self):
        from repro.channel.trace import SignalTrace
        from repro.core.errors import PreambleNotFoundError

        flat = SignalTrace(np.full(2000, 100.0), 2000.0)
        with pytest.raises(PreambleNotFoundError, match="long-duration"):
            TwoPhaseDecoder().decode(flat)

    def test_stack_input_is_the_roof_window(self):
        from repro.core.decoder import (AdaptiveThresholdDecoder,
                                        DecoderConfig, decode_rows)

        trace = tagged_pass("10")
        inner = AdaptiveThresholdDecoder(DecoderConfig(threshold_rule="paper"))
        decoder = TwoPhaseDecoder(decoder=inner)
        roof, config = decoder.stack_input(trace)
        expected = decoder.preamble_detector.roof_window(trace)
        np.testing.assert_array_equal(roof.samples, expected.samples)
        assert roof.start_time_s == expected.start_time_s
        assert config is inner.config
        # A one-row stack of the roof window is phase 2 of decode().
        rows = decode_rows([roof.samples], roof.sample_rate_hz,
                           [roof.start_time_s], [4], config)
        assert rows.result(0) == decoder.decode(trace, n_data_symbols=4)

    def test_adaptive_stack_input_is_the_whole_trace(self):
        from repro.core.decoder import AdaptiveThresholdDecoder

        trace = tagged_pass("00")
        decoder = AdaptiveThresholdDecoder()
        window, config = decoder.stack_input(trace)
        assert window is trace and config is decoder.config

    def test_stack_input_without_long_preamble_raises(self):
        from repro.channel.trace import SignalTrace
        from repro.core.errors import PreambleNotFoundError

        flat = SignalTrace(np.full(2000, 100.0), 2000.0)
        with pytest.raises(PreambleNotFoundError, match="long-duration"):
            TwoPhaseDecoder().stack_input(flat)
