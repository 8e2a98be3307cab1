"""Tests for repro.core.capacity."""

import pytest

from repro.core.capacity import (
    IndoorSetup,
    max_decodable_height,
    max_supported_speed_mps,
    min_decodable_width,
    probe_decodable,
    probe_spec,
    throughput_symbols_per_second,
)
from repro.engine import build_scene

QUICK = IndoorSetup(seeds=(11, 23))


class TestIndoorSetup:
    def test_paper_parameters(self):
        setup = IndoorSetup()
        assert setup.lamp_offset_m == pytest.approx(0.12)
        assert setup.speed_mps == pytest.approx(0.08)

    def test_scene_assembly(self):
        scene = build_scene(probe_spec(QUICK, 0.3, 0.05, seed=11))
        assert scene.receiver_height_m == 0.3
        assert scene.source.position.z == 0.3  # lamp rides with receiver
        assert len(scene.objects) == 1

    def test_scene_validation(self):
        with pytest.raises(ValueError):
            probe_spec(QUICK, -0.1, 0.05, seed=11)
        with pytest.raises(ValueError):
            probe_spec(QUICK, 0.3, 0.0, seed=11)

    def test_sample_rate_clamped(self):
        assert 200.0 <= QUICK.sample_rate_hz(0.01) <= 2000.0
        assert 200.0 <= QUICK.sample_rate_hz(0.2) <= 2000.0


class TestProbes:
    def test_easy_point_decodable(self):
        assert probe_decodable(QUICK, 0.2, 0.05)

    def test_hopeless_point_fails(self):
        """Narrow symbols high up: blurred beyond recovery."""
        assert not probe_decodable(QUICK, 0.6, 0.015)

    def test_blur_tradeoff_monotone_in_width(self):
        """At a fixed height, widening symbols can only help."""
        assert not probe_decodable(QUICK, 0.45, 0.02)
        assert probe_decodable(QUICK, 0.45, 0.09)


class TestSearches:
    def test_min_width_bracketed(self):
        width = min_decodable_width(QUICK, 0.25, tolerance_m=0.004)
        assert width is not None
        assert 0.01 < width < 0.09

    def test_max_height_bracketed(self):
        height = max_decodable_height(QUICK, 0.06, tolerance_m=0.03)
        assert height is not None
        assert 0.2 < height < 0.9

    def test_wider_symbols_reach_higher(self):
        h_narrow = max_decodable_height(QUICK, 0.04, tolerance_m=0.03)
        h_wide = max_decodable_height(QUICK, 0.09, tolerance_m=0.03)
        assert h_narrow is not None and h_wide is not None
        assert h_wide > h_narrow

    def test_throughput_from_width(self):
        t = throughput_symbols_per_second(QUICK, 0.25, tolerance_m=0.004)
        assert t is not None
        assert t > 0.5


class TestMaxSupportedSpeed:
    def test_sampling_limited(self):
        """At low fs, the ADC is the bottleneck."""
        v = max_supported_speed_mps(symbol_width_m=0.1,
                                    detector_bandwidth_hz=100_000.0,
                                    sample_rate_hz=2000.0,
                                    samples_per_symbol=6)
        assert v == pytest.approx(0.1 * 2000.0 / 6)

    def test_response_limited(self):
        """A slow detector bounds the speed regardless of fs."""
        v = max_supported_speed_mps(symbol_width_m=0.1,
                                    detector_bandwidth_hz=60.0,
                                    sample_rate_hz=100_000.0,
                                    bandwidth_margin=3.0)
        assert v == pytest.approx(0.1 * 60.0 / 3.0)

    def test_paper_outdoor_case_supported(self):
        """18 km/h with 10 cm symbols must be within the OPT101+MCP3008
        chain's reach (the paper demonstrates it)."""
        v = max_supported_speed_mps(symbol_width_m=0.1,
                                    detector_bandwidth_hz=2000.0,
                                    sample_rate_hz=2000.0)
        assert v >= 5.0

    def test_scales_with_width(self):
        v1 = max_supported_speed_mps(0.05, 2000.0, 2000.0)
        v2 = max_supported_speed_mps(0.10, 2000.0, 2000.0)
        assert v2 == pytest.approx(2.0 * v1)

    def test_validation(self):
        with pytest.raises(ValueError):
            max_supported_speed_mps(0.0, 100.0, 100.0)
        with pytest.raises(ValueError):
            max_supported_speed_mps(0.1, 0.0, 100.0)
        with pytest.raises(ValueError):
            max_supported_speed_mps(0.1, 100.0, 100.0, samples_per_symbol=0)
