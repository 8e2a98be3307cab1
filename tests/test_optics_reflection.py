"""Tests for repro.optics.reflection."""

import math

import numpy as np
import pytest

from repro.optics import reflection
from repro.optics.geometry import Vec3
from repro.optics.materials import ALUMINUM_TAPE, BLACK_NAPKIN, MIRROR
from repro.optics.reflection import (
    OVERHEAD_GEOMETRY,
    IlluminationGeometry,
    effective_reflectance,
    effective_reflectance_profile,
    mirror_direction,
    phong_lobe_value,
)
from repro.tags import surface as surface_module
from repro.tags.packet import Packet
from repro.tags.surface import TagSurface
from repro.vehicles import profiles as profiles_module
from repro.vehicles.profiles import bmw_3_series, volvo_v40


class TestMirrorDirection:
    def test_normal_incidence_reflects_back(self):
        r = mirror_direction(Vec3(0, 0, -1))
        assert r.z == pytest.approx(1.0)

    def test_45_degree(self):
        incident = Vec3(1, 0, -1).normalized()
        r = mirror_direction(incident)
        assert r.x == pytest.approx(incident.x)
        assert r.z == pytest.approx(-incident.z)

    def test_unit_length(self):
        r = mirror_direction(Vec3(0.3, -0.2, -0.9))
        assert r.norm() == pytest.approx(1.0)


class TestPhongLobe:
    def test_energy_normalised(self):
        # The lobe is a *radiance* distribution: its flux integral
        # (lobe * cos(theta) over the hemisphere) must be 1, so that
        # multiplying by the specular reflectance conserves energy once
        # the transfer integral applies the emission cosine.
        for n in (2.0, 10.0, 50.0):
            thetas = np.linspace(0.0, math.pi / 2, 20001)
            vals = np.array([phong_lobe_value(n, t) for t in thetas])
            integral = np.trapezoid(
                vals * np.cos(thetas) * 2.0 * math.pi * np.sin(thetas),
                thetas)
            assert integral == pytest.approx(1.0, rel=5e-3)

    def test_sharper_lobe_higher_peak(self):
        assert phong_lobe_value(100.0, 0.0) > phong_lobe_value(5.0, 0.0)

    def test_behind_zero(self):
        assert phong_lobe_value(5.0, math.pi * 0.6) == 0.0

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            phong_lobe_value(-1.0, 0.0)


class TestIlluminationGeometry:
    def test_overhead_cosines(self):
        assert OVERHEAD_GEOMETRY.incidence_cosine() == pytest.approx(1.0)
        assert OVERHEAD_GEOMETRY.view_cosine() == pytest.approx(1.0)
        assert OVERHEAD_GEOMETRY.off_mirror_angle() == pytest.approx(0.0)

    def test_oblique_off_mirror(self):
        geom = IlluminationGeometry(
            incident_direction=Vec3(1, 0, -1).normalized(),
            view_direction=Vec3(0, 0, 1))
        assert geom.off_mirror_angle() == pytest.approx(math.pi / 4)

    def test_diffuse_fraction_bounds(self):
        with pytest.raises(ValueError):
            IlluminationGeometry(Vec3(0, 0, -1), Vec3(0, 0, 1),
                                 diffuse_fraction=1.5)


class TestEffectiveReflectance:
    def test_high_beats_low_overhead(self):
        high = effective_reflectance(ALUMINUM_TAPE, OVERHEAD_GEOMETRY)
        low = effective_reflectance(BLACK_NAPKIN, OVERHEAD_GEOMETRY)
        assert high > 10 * low

    def test_specular_peaks_at_mirror_direction(self):
        on_mirror = effective_reflectance(MIRROR, OVERHEAD_GEOMETRY)
        off = IlluminationGeometry(
            incident_direction=Vec3(1, 0, -1).normalized(),
            view_direction=Vec3(0, 0, 1))
        off_mirror = effective_reflectance(MIRROR, off)
        assert on_mirror > 100 * off_mirror

    def test_diffuse_material_direction_independent(self):
        nap_overhead = effective_reflectance(BLACK_NAPKIN, OVERHEAD_GEOMETRY)
        oblique = IlluminationGeometry(
            incident_direction=Vec3(1, 0, -1).normalized(),
            view_direction=Vec3(0, 0, 1))
        nap_oblique = effective_reflectance(BLACK_NAPKIN, oblique)
        # Almost all of the napkin's reflectance is diffuse.
        assert nap_oblique == pytest.approx(nap_overhead, rel=0.1)

    def test_backlit_collimated_is_zero(self):
        geom = IlluminationGeometry(
            incident_direction=Vec3(0, 0, 1),  # coming from below
            view_direction=Vec3(0, 0, 1))
        assert effective_reflectance(ALUMINUM_TAPE, geom) == 0.0

    def test_diffuse_illumination_softens_specular(self):
        """Under fully diffuse light a mirror reads rho/pi, not a spike."""
        diffuse_geom = IlluminationGeometry(
            incident_direction=Vec3(0, 0, -1),
            view_direction=Vec3(0, 0, 1),
            diffuse_fraction=1.0)
        value = effective_reflectance(MIRROR, diffuse_geom)
        assert value == pytest.approx(MIRROR.reflectance / math.pi, rel=0.05)

    def test_oblique_sun_keeps_tape_brighter_than_napkin(self):
        """Crinkled tape must stay readable under 45-degree sun (Sec. 5)."""
        sun_geom = IlluminationGeometry(
            incident_direction=Vec3(1, 0, -1).normalized(),
            view_direction=Vec3(0, 0, 1),
            diffuse_fraction=0.0)
        high = effective_reflectance(ALUMINUM_TAPE, sun_geom)
        low = effective_reflectance(BLACK_NAPKIN, sun_geom)
        assert high > 3 * low


class TestProfile:
    def test_profile_matches_scalars(self):
        mats = [ALUMINUM_TAPE, BLACK_NAPKIN, ALUMINUM_TAPE]
        profile = effective_reflectance_profile(mats, OVERHEAD_GEOMETRY)
        expected = [effective_reflectance(m, OVERHEAD_GEOMETRY) for m in mats]
        assert np.allclose(profile, expected)

    def test_memoisation_consistency(self):
        mats = [ALUMINUM_TAPE] * 50 + [BLACK_NAPKIN] * 50
        profile = effective_reflectance_profile(mats, OVERHEAD_GEOMETRY)
        assert len(set(np.round(profile[:50], 12))) == 1
        assert len(set(np.round(profile[50:], 12))) == 1


class TestSurfaceProfileMemo:
    """Tag and car profiles evaluate each distinct material once."""

    @pytest.mark.parametrize("name", ["tag", "dirty_tag", "volvo", "bmw"])
    def test_one_call_per_material_and_exact(self, name, monkeypatch):
        tag = TagSurface.from_packet(
            Packet.from_bitstring("011010", symbol_width_m=0.05))
        if name in ("tag", "dirty_tag"):
            surface = tag if name == "tag" else tag.degraded(0.35)
            parts, material_at = surface.strips, surface.material_at
        else:
            surface = volvo_v40() if name == "volvo" else bmw_3_series()
            parts = surface.segments

            def material_at(x):
                segment = surface.segment_at(x)
                return None if segment is None else segment.material
        geometry = IlluminationGeometry(
            incident_direction=Vec3(0.4, 0.1, -1.0).normalized(),
            view_direction=Vec3(0.0, 0.0, 1.0), diffuse_fraction=0.15)
        xs = np.linspace(-0.2, surface.length_m + 0.2, 1001)
        # Per-strip evaluation: one material lookup per sample.
        expected = np.array([
            0.0 if (m := material_at(x)) is None
            else effective_reflectance(m, geometry) for x in xs])

        calls: list[str] = []

        def spy(material, geom=OVERHEAD_GEOMETRY):
            calls.append(material.name)
            return effective_reflectance(material, geom)

        for module in (reflection, surface_module, profiles_module):
            monkeypatch.setattr(module, "effective_reflectance", spy,
                                raising=False)
        got = surface.reflectance_samples(xs, geometry)
        monkeypatch.undo()

        assert sorted(calls) == sorted({p.material.name for p in parts})
        assert got.tobytes() == expected.tobytes()
