"""Tests for repro.vehicles.signature (Figs. 13-14 + long preamble)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.mobility import ConstantSpeed
from repro.channel.scene import MovingObject, PassiveScene
from repro.channel.simulator import ChannelSimulator, SimulatorConfig
from repro.channel.trace import SignalTrace
from repro.engine.executor import capture_trace
from repro.engine.spec import ScenarioSpec
from repro.hardware.frontend import ReceiverFrontEnd
from repro.hardware.led_receiver import LedReceiver
from repro.optics.materials import TARMAC
from repro.optics.sources import Sun
from repro.vehicles.profiles import bmw_3_series, volvo_v40
from repro.vehicles.signature import (
    LongPreambleDetector,
    extract_signature,
    match_car,
)


def car_pass_trace(car, lux=5000.0, height=0.75, seed=3):
    receiver = ReceiverFrontEnd(detector=LedReceiver.red_5mm(), seed=seed)
    scene = PassiveScene(source=Sun(ground_lux=lux), receiver_height_m=height,
                         ground=TARMAC,
                         objects=[MovingObject(car, ConstantSpeed(5.0, -1.5),
                                               car.model)])
    sim = ChannelSimulator(scene, receiver,
                           SimulatorConfig(sample_rate_hz=2000.0, seed=seed))
    return sim.capture_pass()


class TestExtraction:
    def test_volvo_pattern(self):
        sig = extract_signature(car_pass_trace(volvo_v40()))
        assert sig.pattern == "PVPVP"
        assert sig.n_peaks() == 3
        assert sig.n_valleys() == 2

    def test_bmw_pattern(self):
        sig = extract_signature(car_pass_trace(bmw_3_series()))
        assert sig.pattern == "PVPVP"

    def test_strict_alternation(self):
        for car in (volvo_v40(), bmw_3_series()):
            sig = extract_signature(car_pass_trace(car))
            kinds = [f.kind for f in sig.features]
            for i in range(len(kinds) - 1):
                assert kinds[i] != kinds[i + 1]

    def test_widths_measured(self):
        sig = extract_signature(car_pass_trace(bmw_3_series()))
        assert all(f.width_s > 0.0 for f in sig.features)

    def test_flat_trace_empty_signature(self):
        from repro.channel.trace import SignalTrace

        sig = extract_signature(SignalTrace(np.full(1000, 50.0), 500.0))
        assert sig.features == []
        assert sig.pattern == ""

    def test_prominence_validation(self):
        with pytest.raises(ValueError):
            extract_signature(car_pass_trace(volvo_v40()),
                              min_prominence_fraction=1.5)


class TestMatching:
    def test_both_cars_identified(self):
        candidates = [volvo_v40(), bmw_3_series()]
        for car in (volvo_v40(), bmw_3_series()):
            sig = extract_signature(car_pass_trace(car))
            matched = match_car(sig, candidates)
            assert matched is not None
            assert matched.model == car.model

    def test_trunk_width_is_the_discriminator(self):
        """The sedan's final peak is much wider than the hatchback's."""
        sig_v = extract_signature(car_pass_trace(volvo_v40()))
        sig_b = extract_signature(car_pass_trace(bmw_3_series()))
        assert sig_b.features[-1].width_s > 2 * sig_v.features[-1].width_s

    def test_empty_signature_unmatched(self):
        from repro.channel.trace import SignalTrace

        sig = extract_signature(SignalTrace(np.full(100, 5.0), 100.0))
        assert match_car(sig, [volvo_v40()]) is None


class TestLongPreamble:
    def test_detects_hood_then_windshield(self):
        trace = car_pass_trace(volvo_v40())
        found = LongPreambleDetector().detect(trace)
        assert found is not None
        hood_t, valley_t = found
        assert hood_t < valley_t

    def test_roof_window_follows_valley(self):
        trace = car_pass_trace(volvo_v40())
        detector = LongPreambleDetector()
        hood_t, valley_t = detector.detect(trace)
        roof = detector.roof_window(trace)
        assert roof is not None
        assert roof.start_time_s >= valley_t - 1e-9
        assert len(roof) < len(trace)

    def test_no_preamble_in_flat_trace(self):
        from repro.channel.trace import SignalTrace

        detector = LongPreambleDetector()
        assert detector.detect(SignalTrace(np.full(500, 7.0), 100.0)) is None
        assert detector.roof_window(SignalTrace(np.full(500, 7.0),
                                                100.0)) is None


def signature_landmarks(trace, fraction=0.25):
    """(hood, valley) times read off the full signature's features."""
    hood = None
    for feature in extract_signature(
            trace, min_prominence_fraction=fraction).features:
        if feature.kind == "peak" and hood is None:
            hood = feature
        elif feature.kind == "valley" and hood is not None:
            return hood.time_s, feature.time_s
    return None


class TestDetectSkipsWidths:
    """``detect`` reads the signature's landmarks without its widths."""

    @pytest.mark.parametrize("car", ["volvo_v40", "bmw_3_series"])
    @pytest.mark.parametrize("lux", [400.0, 5000.0, 21500.0])
    def test_captured_car_passes(self, car, lux):
        traces = [car_pass_trace(volvo_v40() if car == "volvo_v40"
                                 else bmw_3_series(), lux=lux, seed=seed)
                  for seed in (3, 4)]
        # A tagged car, as the two-phase decoder sees it.
        spec = ScenarioSpec(source="sun", detector="led", cap=False,
                            ground="tarmac", car=car, decoder="two_phase",
                            bits="0110", symbol_width_m=0.05,
                            speed_mps=5.0, receiver_height_m=0.8,
                            start_position_m=-1.5, ground_lux=lux, seed=5)
        traces.append(capture_trace(spec))
        for fraction in (0.1, 0.25, 0.5):
            for trace in traces:
                assert (LongPreambleDetector(fraction).detect(trace)
                        == signature_landmarks(trace, fraction))

    @given(values=st.lists(st.integers(0, 6), min_size=1, max_size=300),
           noise=st.sampled_from([0.0, 0.3]),
           seed=st.integers(0, 2**16),
           fs=st.sampled_from([100.0, 2000.0]),
           t0=st.floats(-2.0, 2.0),
           fraction=st.sampled_from([0.1, 0.25, 0.6]))
    @settings(max_examples=60, deadline=None)
    def test_random_traces(self, values, noise, seed, fs, t0, fraction):
        # Small integer levels make plateaus and tied extrema common.
        samples = np.repeat(np.asarray(values, dtype=float), 3)
        samples += noise * np.random.default_rng(seed).normal(
            size=len(samples))
        trace = SignalTrace(samples, fs, t0)
        assert (LongPreambleDetector(fraction).detect(trace)
                == signature_landmarks(trace, fraction))
