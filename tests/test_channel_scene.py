"""Tests for repro.channel.scene."""

import numpy as np
import pytest

from repro.channel.distortion import DENSE_FOG
from repro.channel.mobility import ConstantSpeed
from repro.channel.scene import MovingObject, PassiveScene
from repro.optics.sources import FluorescentCeiling, LedLamp, Sun
from repro.tags.packet import Packet
from repro.tags.surface import TagSurface

from .conftest import build_indoor_scene


def _tag(bits="00", width=0.03):
    return TagSurface.from_packet(
        Packet.from_bitstring(bits, symbol_width_m=width))


class TestMovingObject:
    def test_local_coordinates(self):
        obj = MovingObject(_tag(), ConstantSpeed(1.0, -1.0), "t")
        # At t = 1 the leading edge is at x = 0; ground point x = -0.1 is
        # 0.1 m behind the leading edge.
        u = obj.local_coordinates(np.array([-0.1]), np.array([1.0]))
        assert float(u[0]) == pytest.approx(0.1)

    def test_fov_share_bounds(self):
        with pytest.raises(ValueError):
            MovingObject(_tag(), ConstantSpeed(1.0), "t", fov_share=0.0)
        with pytest.raises(ValueError):
            MovingObject(_tag(), ConstantSpeed(1.0), "t", fov_share=1.1)

    def test_entry_exit_ordering(self):
        obj = MovingObject(_tag(), ConstantSpeed(0.1, -0.5), "t")
        t_in, t_out = obj.entry_exit_times(0.05)
        assert 0.0 < t_in < t_out


class TestPassiveScene:
    def test_positive_height(self):
        with pytest.raises(ValueError):
            PassiveScene(source=Sun(), receiver_height_m=0.0)

    def test_share_budget_enforced(self):
        with pytest.raises(ValueError, match="share"):
            PassiveScene(
                source=Sun(), receiver_height_m=0.5,
                objects=[
                    MovingObject(_tag(), ConstantSpeed(1.0), "a",
                                 fov_share=0.7),
                    MovingObject(_tag(), ConstantSpeed(1.0), "b",
                                 fov_share=0.7),
                ])

    def test_geometry_from_source(self):
        sun_scene = PassiveScene(source=Sun(elevation_deg=45.0,
                                            sky_diffuse_fraction=0.6),
                                 receiver_height_m=0.5)
        geom = sun_scene.illumination_geometry()
        assert geom.diffuse_fraction == pytest.approx(0.6)
        assert geom.incident_direction.z < 0.0

    def test_lamp_geometry_points_from_lamp(self):
        scene = build_indoor_scene()
        geom = scene.illumination_geometry()
        # Lamp at +x relative to the receiver's nadir: rays travel -x.
        assert geom.incident_direction.x < 0.0

    def test_noise_floor_level(self):
        scene = PassiveScene(source=Sun(ground_lux=3700.0),
                             receiver_height_m=1.0)
        assert scene.nominal_noise_floor_lux() == pytest.approx(3700.0)

    def test_fog_raises_noise_floor(self):
        clear = PassiveScene(source=Sun(ground_lux=1000.0),
                             receiver_height_m=1.0)
        foggy = PassiveScene(source=Sun(ground_lux=1000.0),
                             receiver_height_m=1.0, atmosphere=DENSE_FOG)
        assert (foggy.nominal_noise_floor_lux()
                > clear.nominal_noise_floor_lux())

    def test_flicker_propagates_to_noise_floor(self):
        scene = PassiveScene(source=FluorescentCeiling(ground_lux=300.0),
                             receiver_height_m=0.2)
        t = np.linspace(0.0, 0.02, 500)
        floor = scene.noise_floor_lux(t)
        assert floor.max() - floor.min() > 10.0
