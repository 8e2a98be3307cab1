"""Tests for repro.core.receiver_select (Section 4.4 policy)."""

import pytest

from repro.core.errors import SaturatedReceiverError
from repro.core.receiver_select import DualReceiverController, ReceiverChoice


class TestSelection:
    def test_dark_room_picks_most_sensitive(self):
        choice = DualReceiverController().select(50.0)
        assert choice.name == "PD-G1"

    def test_medium_room_escalates_gain(self):
        """At 450 lux G1 saturates (Fig. 11): the policy must step down."""
        choice = DualReceiverController().select(450.0)
        assert choice.name in ("PD-G2", "PD-G3")

    def test_outdoor_daylight_picks_led(self):
        """Above PD-G3's 5 klux limit only the RX-LED survives."""
        choice = DualReceiverController().select(10_000.0)
        assert choice.name == "RX-LED"

    def test_paper_outdoor_noise_floors_pick_led(self):
        controller = DualReceiverController()
        for lux in (6200.0, 5500.0):
            assert controller.select(lux).name == "RX-LED"

    def test_extreme_light_raises(self):
        with pytest.raises(SaturatedReceiverError):
            DualReceiverController().select(60_000.0)

    def test_headroom_above_one(self):
        choice = DualReceiverController().select(1000.0)
        assert choice.headroom > 1.0

    def test_negative_ambient_rejected(self):
        with pytest.raises(ValueError):
            DualReceiverController().select(-1.0)


class TestPolicyVariants:
    def test_margin_shrinks_usable_range(self):
        tight = DualReceiverController(margin=2.0)
        loose = DualReceiverController(margin=1.0)
        # 300 lux * 2.0 margin = 600 > 450: G1 unusable under the tight
        # policy but fine under the loose one.
        assert loose.select(300.0).name == "PD-G1"
        assert tight.select(300.0).name != "PD-G1"

    def test_robust_policy_prefers_headroom(self):
        robust = DualReceiverController(prefer_sensitivity=False)
        assert robust.select(50.0).name == "RX-LED"

    def test_margin_below_one_rejected(self):
        with pytest.raises(ValueError):
            DualReceiverController(margin=0.5)


class TestChoicesAndTable:
    def test_choices_ordered_by_sensitivity(self):
        options = DualReceiverController().choices(50.0)
        names = [c.name for c in options]
        assert names == ["PD-G1", "PD-G2", "PD-G3", "RX-LED"]

    def test_choices_thin_out_with_light(self):
        controller = DualReceiverController()
        assert len(controller.choices(50.0)) > len(controller.choices(3000.0))

    def test_selection_table_covers_saturation(self):
        controller = DualReceiverController()
        rows = controller.selection_table([100.0, 2000.0, 10_000.0, 80_000.0])
        assert rows[0][1] == "PD-G1"
        assert rows[-1][1] == "saturated"

    def test_frontend_is_usable(self):
        import numpy as np

        fe = DualReceiverController().select(450.0).frontend
        v0, sigma = fe.respond(np.full(200, 450.0), 500.0)
        codes = fe.digitize(v0, sigma,
                            np.random.default_rng(0).normal(size=200), 500.0)
        assert codes.max() < 1023  # not railed
