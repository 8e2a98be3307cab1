"""Tests for repro.hardware.frontend (cap + full receive chain)."""

import math

import numpy as np
import pytest

from repro.hardware.amplifier import Amplifier
from repro.hardware.frontend import FovCap, ReceiverFrontEnd
from repro.hardware.led_receiver import LedReceiver
from repro.hardware.photodiode import PdGain, Photodiode


class TestFovCap:
    def test_paper_cap_dimensions(self):
        cap = FovCap.paper_cap()
        assert cap.opening_m == pytest.approx(0.012)
        assert cap.depth_m == pytest.approx(0.028)

    def test_cap_angle_geometry(self):
        cap = FovCap.paper_cap()
        expected = 2.0 * math.degrees(math.atan2(0.006, 0.028))
        assert cap.full_angle_deg == pytest.approx(expected)

    def test_capped_fov_takes_minimum(self):
        cap = FovCap.paper_cap()
        pd = Photodiode.opt101()
        capped = cap.capped_fov(pd.fov)
        assert capped.full_angle_deg == pytest.approx(cap.full_angle_deg)
        narrow = LedReceiver.red_5mm()
        assert cap.capped_fov(narrow.fov).full_angle_deg == pytest.approx(
            narrow.fov.full_angle_deg)

    def test_validation(self):
        with pytest.raises(ValueError):
            FovCap(opening_m=0.0)
        with pytest.raises(ValueError):
            FovCap(transmission=0.0)
        with pytest.raises(ValueError):
            FovCap(ambient_rejection=1.5)


class TestFrontEndGeometry:
    def test_effective_fov_without_cap(self):
        fe = ReceiverFrontEnd(detector=Photodiode.opt101())
        assert fe.effective_fov.full_angle_deg == pytest.approx(
            Photodiode.opt101().fov.full_angle_deg)

    def test_with_cap_narrows(self):
        fe = ReceiverFrontEnd(detector=Photodiode.opt101()).with_cap()
        assert fe.effective_fov.full_angle_deg < 30.0
        assert fe.signal_transmission < 1.0
        assert fe.ambient_transmission < 1.0

    def test_saturates_at_uses_ambient_path(self):
        fe = ReceiverFrontEnd(detector=Photodiode.opt101(gain=PdGain.G2))
        assert fe.saturates_at(1200.0)
        assert not fe.saturates_at(1000.0)
        capped = fe.with_cap()
        # The cap attenuates ambient light, extending the usable range.
        assert not capped.saturates_at(1200.0)


class TestCapture:
    def test_deterministic_with_seed(self):
        fe = ReceiverFrontEnd(detector=Photodiode.opt101(), seed=5)
        lux = np.full(400, 200.0)
        a = fe.capture(lux, sample_rate_hz=1000.0)
        b = fe.capture(lux, sample_rate_hz=1000.0)
        assert np.array_equal(a, b)

    def test_output_range(self):
        fe = ReceiverFrontEnd(detector=Photodiode.opt101(gain=PdGain.G1),
                              seed=1)
        lux = np.linspace(0.0, 2000.0, 1000)
        codes = fe.capture(lux, sample_rate_hz=1000.0)
        assert codes.min() >= 0
        assert codes.max() <= 1023

    def test_saturation_rails_output(self):
        fe = ReceiverFrontEnd(detector=Photodiode.opt101(gain=PdGain.G1),
                              seed=1)
        lux = np.full(600, 6200.0)
        codes = fe.capture(lux, sample_rate_hz=1000.0)
        assert float((codes >= 1015).mean()) > 0.9

    def test_linear_region_level(self):
        fe = ReceiverFrontEnd(detector=Photodiode.opt101(gain=PdGain.G2),
                              seed=1)
        lux = np.full(2000, 600.0)
        codes = fe.capture(lux, sample_rate_hz=1000.0)
        expected = 600.0 / 1200.0 * 1023
        assert float(np.median(codes[500:])) == pytest.approx(expected, rel=0.02)

    def test_rejects_2d_input(self):
        fe = ReceiverFrontEnd(detector=Photodiode.opt101())
        with pytest.raises(ValueError):
            fe.capture(np.zeros((10, 10)), sample_rate_hz=100.0)

    def test_rejects_negative_lux(self):
        fe = ReceiverFrontEnd(detector=Photodiode.opt101())
        with pytest.raises(ValueError):
            fe.capture(np.array([-1.0]), sample_rate_hz=100.0)

    def test_describe_mentions_detector(self):
        fe = ReceiverFrontEnd(detector=LedReceiver.red_5mm())
        assert "RX-LED" in fe.describe()


class TestBatchOfOne:
    """``capture`` is ``respond`` + one noise draw + ``digitize``."""

    @pytest.mark.parametrize("bandwidth_hz", [300.0, 1.0e6])
    def test_digitized_noise_rows_match_serial_captures(self, bandwidth_hz):
        # 300 Hz at 2 kS/s puts the amplifier's pole below Nyquist,
        # which no default front end reaches (the LM358's band limit
        # is 1 MHz divided by its gain).
        fe = ReceiverFrontEnd(detector=Photodiode.opt101(),
                              amplifier=Amplifier(bandwidth_hz=bandwidth_hz))
        fs = 2000.0
        lux = 600.0 + 500.0 * np.sin(np.linspace(0.0, 30.0, 400))
        v0, sigma = fe.respond(lux, fs)
        seeds = (1, 2, 3)
        noise = np.stack([np.random.default_rng(s).normal(size=len(lux))
                          for s in seeds])
        codes = fe.digitize(v0, sigma, noise, fs)
        assert codes.shape == noise.shape
        for seed, row in zip(seeds, codes):
            serial = fe.capture(lux, fs, rng=np.random.default_rng(seed))
            assert row.tobytes() == serial.tobytes()

    def test_respond_works_row_by_row(self):
        fe = ReceiverFrontEnd(detector=LedReceiver.red_5mm())
        lux = np.random.default_rng(2).uniform(0.0, 900.0, size=(3, 80))
        v0, sigma = fe.respond(lux, 8000.0)
        for row, r_v0, r_sigma in zip(lux, v0, sigma):
            one_v0, one_sigma = fe.respond(row, 8000.0)
            assert r_v0.tobytes() == one_v0.tobytes()
            assert r_sigma.tobytes() == one_sigma.tobytes()
