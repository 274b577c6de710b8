"""Angular power spectrum tests: VMF math, CDL construction, table loading."""

import math
import shutil

import numpy as np
import pytest

from holomimo import (
    AngularPowerSpectrum,
    CdlClusterRow,
    VmfComponent,
    concentration_from_spread,
    load_cdl_rows,
    load_cdl_table,
    rotate_spectrum,
    spectra_from_cdl,
)
from holomimo.config import bundled_cdl_path
from holomimo.errors import EmptyTable, MalformedTableFile, SpreadOutOfRange
from holomimo.spectrum import _wrap_azimuth
from spectrum_oracle import spectrum_value
from vmf_density_oracle import vmf_density

# Frozen from direct high-precision evaluation of the density formula.
VMF_A1_AT_MEAN = 0.18406549961659598
VMF_A1_ANTIPODAL = 0.024910556524700641
ISOTROPIC_DENSITY = 1.0 / (4.0 * math.pi)


def _component(alpha, mean_elevation=0.7, mean_azimuth=0.3):
    return VmfComponent(
        weight=1.0,
        mean_azimuth=mean_azimuth,
        mean_elevation=mean_elevation,
        concentration=alpha,
    )


def sphere_quadrature(fn, n_theta=256, n_phi=256):
    """Gauss-Legendre integral of fn(theta, phi) * sin(theta) over the sphere."""
    xt, wt = np.polynomial.legendre.leggauss(n_theta)
    xp, wp = np.polynomial.legendre.leggauss(n_phi)
    theta = 0.5 * math.pi * (xt + 1.0)
    phi = math.pi * xp
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    values = fn(tt, pp) * np.sin(tt)
    return float(
        np.einsum("i,j,ij->", wt * 0.5 * math.pi, wp * math.pi, values)
    )


class TestVmfDensity:
    def test_zero_concentration_is_isotropic(self):
        comp = _component(0.0)
        for theta, phi in [(0.0, 0.0), (1.0, -2.0), (math.pi, 3.0)]:
            assert vmf_density(comp, theta, phi) == pytest.approx(
                ISOTROPIC_DENSITY, rel=1e-12
            )

    def test_tiny_concentration_uses_limit_branch(self):
        comp = _component(1e-9)
        assert vmf_density(comp, 1.0, 1.0) == pytest.approx(
            ISOTROPIC_DENSITY, rel=1e-6
        )

    def test_value_at_mean_direction(self):
        comp = _component(1.0)
        value = vmf_density(comp, comp.mean_elevation, comp.mean_azimuth)
        assert value == pytest.approx(VMF_A1_AT_MEAN, rel=1e-12)

    def test_value_at_antipode(self):
        comp = _component(1.0)
        value = vmf_density(
            comp, math.pi - comp.mean_elevation, comp.mean_azimuth - math.pi
        )
        assert value == pytest.approx(VMF_A1_ANTIPODAL, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 10.0, 100.0, 1000.0])
    def test_density_integrates_to_one(self, alpha):
        comp = _component(alpha, mean_elevation=1.1, mean_azimuth=-0.4)
        total = sphere_quadrature(lambda t, p: vmf_density(comp, t, p))
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_large_concentration_is_finite(self):
        comp = _component(2e4)
        peak = vmf_density(comp, comp.mean_elevation, comp.mean_azimuth)
        assert np.isfinite(peak) and peak > 1e3
        assert vmf_density(comp, comp.mean_elevation + 1.0, comp.mean_azimuth) >= 0.0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            alpha = rng.uniform(0.1, 300)
            t0, p0 = rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0)
            te, pe = rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi)
            shift = rng.uniform(-math.pi, math.pi)
            a = vmf_density(_component(alpha, t0, p0), te, pe)
            b = vmf_density(_component(alpha, t0, p0 + shift), te, pe + shift)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-300)


class TestSpectrumValue:
    def test_isotropic_is_one(self):
        iso = AngularPowerSpectrum.isotropic()
        assert spectrum_value(iso, 0.3, 2.0) == 1.0
        np.testing.assert_array_equal(
            spectrum_value(iso, np.zeros((2, 2)), np.ones((2, 2))), np.ones((2, 2))
        )

    def test_single_component_mixture_equals_density(self):
        comp = _component(5.0)
        mix = AngularPowerSpectrum.mixture([comp])
        assert spectrum_value(mix, 0.5, 0.5) == pytest.approx(
            vmf_density(comp, 0.5, 0.5), rel=1e-12
        )

    def test_equal_halves_collapse(self):
        half = VmfComponent(
            weight=0.5, mean_azimuth=0.3, mean_elevation=0.7, concentration=5.0
        )
        mix = AngularPowerSpectrum.mixture([half, half])
        assert spectrum_value(mix, 1.0, 0.2) == pytest.approx(
            vmf_density(half, 1.0, 0.2), rel=1e-12
        )

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(11)
        comps = [
            VmfComponent(
                weight=0.25,
                mean_azimuth=rng.uniform(-3, 3),
                mean_elevation=rng.uniform(0, math.pi),
                concentration=rng.uniform(0, 500),
            )
            for _ in range(4)
        ]
        mix = AngularPowerSpectrum.mixture(comps)
        theta = rng.uniform(0, math.pi, size=200)
        phi = rng.uniform(-math.pi, math.pi, size=200)
        assert np.all(spectrum_value(mix, theta, phi) >= 0.0)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            AngularPowerSpectrum.mixture([_component(1.0), _component(2.0)])


class TestConcentrationFromSpread:
    def test_reference_values(self):
        assert concentration_from_spread(2.129) == pytest.approx(1e4, rel=1e-12)
        assert concentration_from_spread(10.0) == pytest.approx(453.2641, rel=1e-12)

    @pytest.mark.parametrize("bad", [21.29, 21.0, 0.0, -3.0, 40.0])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(SpreadOutOfRange):
            concentration_from_spread(bad)

    def test_strictly_decreasing(self):
        spreads = np.linspace(0.5, 20.9, 50)
        values = [concentration_from_spread(s) for s in spreads]
        assert np.all(np.diff(values) < 0)


class TestCdl:
    def test_bundled_table_has_23_clusters(self):
        rows, meta = load_cdl_table(bundled_cdl_path())
        assert len(rows) == 23
        assert meta["asd_deg"] == 10.0 and meta["asa_deg"] == 20.0

    def test_spectra_from_bundled_table(self):
        rows, meta = load_cdl_table(bundled_cdl_path())
        dep, arr = spectra_from_cdl(rows, meta["asd_deg"], meta["asa_deg"])
        assert len(dep.components) == 23 and len(arr.components) == 23
        for spec in (dep, arr):
            assert sum(c.weight for c in spec.components) == pytest.approx(
                1.0, abs=1e-9
            )
        # departure means come from AoD/ZoD, arrival means from AoA/ZoA
        assert dep.components[0].mean_azimuth == pytest.approx(math.radians(9.3))
        assert arr.components[0].mean_elevation == pytest.approx(math.radians(78.9))

    def test_single_row_degenerate_table(self):
        row = CdlClusterRow(
            cluster_id=1, power_db=0.0, aod_deg=30.0, zod_deg=90.0,
            aoa_deg=-10.0, zoa_deg=80.0,
        )
        dep, arr = spectra_from_cdl([row], 10.0, 10.0)
        assert len(dep.components) == 1
        assert dep.components[0].weight == pytest.approx(1.0)
        assert dep.components[0].mean_azimuth == pytest.approx(math.radians(30.0))

    def test_empty_table_rejected(self):
        with pytest.raises(EmptyTable):
            spectra_from_cdl([], 10.0, 10.0)

    def test_weights_follow_linear_power(self):
        rows = [
            CdlClusterRow(1, 0.0, 0.0, 90.0, 0.0, 90.0),
            CdlClusterRow(2, -10.0, 10.0, 90.0, 10.0, 90.0),
        ]
        dep, _ = spectra_from_cdl(rows, 5.0, 5.0)
        assert dep.components[0].weight / dep.components[1].weight == pytest.approx(
            10.0, rel=1e-12
        )

    def test_malformed_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,power\n1,0\n")
        with pytest.raises(MalformedTableFile):
            load_cdl_table(bad)

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(EmptyTable):
            load_cdl_table(empty)

    def test_header_only_file(self, tmp_path):
        f = tmp_path / "header.csv"
        f.write_text("cluster_id,power_db,aod_deg,zod_deg,aoa_deg,zoa_deg\n")
        with pytest.raises(EmptyTable):
            load_cdl_table(f)


    @pytest.mark.parametrize(
        "content", [b"\xff\xfe", b"[" * 100_000], ids=["undecodable", "nested"]
    )
    def test_unreadable_sidecar_raises(self, tmp_path, content):
        table = tmp_path / "cdl.csv"
        shutil.copyfile(bundled_cdl_path(), table)
        table.with_suffix(".json").write_bytes(content)
        with pytest.raises(MalformedTableFile, match="cdl.json"):
            load_cdl_table(table)
        assert len(load_cdl_rows(table)) == 23


class TestRotation:
    def test_float_wrap_is_bitwise_the_array_wrap(self):
        # rotate_spectrum wraps one float per cluster in float arithmetic;
        # it must give the bits of the NumPy array form it replaced, edges
        # and signed zeros included.
        edges = [math.pi, -math.pi, 0.0, -0.0, 3.0 * math.pi, -3.0 * math.pi,
                 1e-300, -1e-300]
        rng = np.random.default_rng(3)
        angles = np.concatenate([edges, rng.uniform(-20.0, 20.0, 2000),
                                 rng.normal(scale=1e-3, size=200)])
        array = np.pi - np.mod(-angles + np.pi, 2.0 * np.pi)
        scalar = [_wrap_azimuth(float(phi)) for phi in angles]
        assert all(type(value) is float for value in scalar)
        assert np.array(scalar).tobytes() == array.tobytes()
        assert np.all((-math.pi < array) & (array <= math.pi))

    def test_isotropic_unchanged(self):
        iso = AngularPowerSpectrum.isotropic()
        assert rotate_spectrum(iso, 1.0) is iso

    def test_rotation_shifts_means_and_wraps(self):
        comp = _component(5.0, mean_azimuth=3.0)
        mix = AngularPowerSpectrum.mixture([comp])
        rotated = rotate_spectrum(mix, 1.0)
        expected = 3.0 + 1.0 - 2.0 * math.pi
        assert rotated.components[0].mean_azimuth == pytest.approx(expected)
        assert -math.pi < rotated.components[0].mean_azimuth <= math.pi

    def test_rotation_preserves_values(self):
        comp = _component(50.0, mean_elevation=1.2)
        mix = AngularPowerSpectrum.mixture([comp])
        rotated = rotate_spectrum(mix, 0.8)
        assert spectrum_value(mix, 1.0, 0.1) == pytest.approx(
            spectrum_value(rotated, 1.0, 0.1 + 0.8), rel=1e-12
        )


def test_mixture_integrates_to_one_over_sphere():
    comps = [
        VmfComponent(0.5, 0.2, 1.0, 40.0),
        VmfComponent(0.3, -2.0, 2.1, 7.0),
        VmfComponent(0.2, 1.4, 0.4, 150.0),
    ]
    mix = AngularPowerSpectrum.mixture(comps)
    total = sphere_quadrature(lambda t, p: spectrum_value(mix, t, p))
    assert total == pytest.approx(1.0, abs=1e-3)


def test_isotropic_integrates_to_full_solid_angle():
    iso = AngularPowerSpectrum.isotropic()
    total = sphere_quadrature(lambda t, p: spectrum_value(iso, t, p))
    assert total == pytest.approx(4.0 * math.pi, rel=1e-9)


def test_mean_azimuth_normalized_into_half_open_interval():
    comp = VmfComponent(
        weight=1.0, mean_azimuth=-math.pi, mean_elevation=1.0, concentration=2.0
    )
    assert comp.mean_azimuth == pytest.approx(math.pi)
    comp2 = VmfComponent(
        weight=1.0, mean_azimuth=7.0, mean_elevation=1.0, concentration=2.0
    )
    assert -math.pi < comp2.mean_azimuth <= math.pi
