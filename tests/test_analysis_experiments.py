"""Tests for repro.analysis.experiments — every figure must reproduce.

These are the headline integration tests: each paper figure's
shape-level claim must hold on the simulated substrate.  The Fig. 6
sweeps are the slow ones and run in quick mode.
"""

import json

import pytest

from repro.analysis.experiments import (
    experiment_fig5,
    experiment_fig6a,
    experiment_fig6b,
    experiment_fig7,
    experiment_fig8,
    experiment_fig10,
    experiment_fig11,
    experiment_fig13,
    experiment_fig14,
    experiment_fig15,
    experiment_fig16,
    experiment_fig17,
)


class TestSection41:
    def test_fig5_ideal_decoding(self):
        result = experiment_fig5()
        assert result.passed, result.report()
        assert result.measured["code_00_decoded"]
        assert result.measured["code_10_decoded"]

    @pytest.mark.slow
    def test_fig6a_linear_frontier(self):
        result = experiment_fig6a(quick=True)
        assert result.passed, result.report()
        assert result.measured["linear_slope_m_per_m"] > 0.0
        assert result.measured["r_squared"] >= 0.85

    @pytest.mark.slow
    def test_fig6b_throughput_decay(self):
        result = experiment_fig6b(quick=True)
        assert result.passed, result.report()
        assert result.measured["exp_rate_per_m"] < 0.0
        assert result.measured["decay_ratio_first_to_last"] >= 1.8

    def test_fig7_fluorescent(self):
        result = experiment_fig7()
        assert result.passed, result.report()
        assert result.measured["decoded"]
        # 'Thicker lines': strong 100 Hz content vs the dark room.
        assert (result.measured["ac_100hz_ripple_share"]
                > result.measured["dark_room_ripple_share"])


class TestSection42:
    def test_fig8_dtw(self):
        result = experiment_fig8()
        assert result.passed, result.report()
        assert result.measured["threshold_decode_wrong"]
        assert (result.measured["dtw_distance_to_10"]
                < result.measured["dtw_distance_to_00"])
        assert result.measured["classified_as"] == "10"


class TestSection43:
    def test_fig10_collisions(self):
        result = experiment_fig10()
        assert result.passed, result.report()
        assert result.measured["case1_decodes_dominant"]
        assert result.measured["case2_decodes_dominant"]
        assert not result.measured["case3_decodes_either"]
        assert len(result.measured["case3_peak_frequencies_hz"]) >= 2


class TestSection44:
    def test_fig11_receiver_table(self):
        result = experiment_fig11()
        assert result.passed, result.report()
        # Exact saturation columns.
        assert result.measured["PD-G1"]["saturation_lux"] == pytest.approx(
            450.0, rel=0.02)
        assert result.measured["RX-LED"]["saturation_lux"] == pytest.approx(
            35_000.0, rel=0.02)


class TestSection5:
    def test_fig13_volvo(self):
        result = experiment_fig13()
        assert result.passed, result.report()
        assert result.measured["matched_model"] == "Volvo V40"

    def test_fig14_bmw(self):
        result = experiment_fig14()
        assert result.passed, result.report()
        assert result.measured["matched_model"] == "BMW 3 series"

    def test_fig15_noise_floor(self):
        result = experiment_fig15()
        assert result.passed, result.report()
        assert (result.measured["decode_rate_at_450lux"]
                > result.measured["decode_rate_at_100lux"])

    def test_fig16_fov_cap(self):
        result = experiment_fig16()
        assert result.passed, result.report()
        assert (result.measured["decode_rate_with_cap"]
                > result.measured["decode_rate_without_cap"])

    def test_fig17_outdoor(self):
        result = experiment_fig17()
        assert result.passed, result.report()
        assert result.measured["throughput_sps"] == pytest.approx(50.0)


ALL_EXPERIMENTS = (
    experiment_fig5, experiment_fig6a, experiment_fig6b, experiment_fig7,
    experiment_fig8, experiment_fig10, experiment_fig11, experiment_fig13,
    experiment_fig14, experiment_fig15, experiment_fig16, experiment_fig17,
)


@pytest.mark.parametrize("experiment", ALL_EXPERIMENTS,
                         ids=lambda f: f.__name__)
def test_result_holds_builtins(experiment):
    """``passed`` is a builtin bool and ``measured`` serializes as JSON
    (the golden capture writes it verbatim)."""
    result = experiment()
    assert isinstance(result.passed, bool)
    json.dumps(result.measured)
