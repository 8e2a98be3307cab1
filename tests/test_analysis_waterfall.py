"""Tests for repro.analysis.waterfall (decode-rate stress curves)."""

import pytest

from repro.analysis.waterfall import (
    WaterfallCurve,
    WaterfallPoint,
    dirt_waterfall,
    fog_waterfall,
    noise_floor_waterfall,
)

SEEDS = (2, 3, 4)


class TestCurveStructure:
    def _curve(self):
        return WaterfallCurve(parameter="x", points=[
            WaterfallPoint(1.0, 1.0),
            WaterfallPoint(2.0, 0.7),
            WaterfallPoint(3.0, 0.2),
        ])

    def test_crossover(self):
        assert self._curve().crossover(0.5) == 3.0
        assert self._curve().crossover(0.9) == 2.0

    def test_no_crossover(self):
        assert self._curve().crossover(0.1) is None

    def test_crossover_validation(self):
        with pytest.raises(ValueError):
            self._curve().crossover(0.0)

    def test_render(self):
        text = self._curve().render()
        assert "decode rate" in text
        assert text.count("|") == 3


class TestNoiseFloorWaterfall:
    def test_fig15_generalised(self):
        """The decode rate must fall as the ambient light dims, with the
        Fig. 15 operating points on the right sides of the cliff."""
        curve = noise_floor_waterfall(lux_levels=[450.0, 100.0],
                                      height_m=0.25, seeds=SEEDS)
        rates = {p.stress: p.decode_rate for p in curve.points}
        assert rates[450.0] > rates[100.0]
        assert rates[100.0] <= 0.34


class TestDirtWaterfall:
    def test_dirt_degrades_monotonically_at_ends(self):
        curve = dirt_waterfall(dirt_levels=[0.0, 0.95], seeds=SEEDS)
        assert curve.points[0].decode_rate >= curve.points[-1].decode_rate

    def test_clean_tag_decodes(self):
        curve = dirt_waterfall(dirt_levels=[0.0], seeds=SEEDS)
        assert curve.points[0].decode_rate >= 0.67

    def test_dirt_bounds_validated(self):
        with pytest.raises(ValueError):
            dirt_waterfall(dirt_levels=[1.5], seeds=SEEDS)


class TestFogWaterfall:
    def test_clear_beats_dense_fog(self):
        curve = fog_waterfall(visibilities_m=[10_000.0, 3.0], seeds=SEEDS)
        assert curve.points[0].decode_rate >= curve.points[-1].decode_rate
        assert curve.points[0].decode_rate >= 0.67
