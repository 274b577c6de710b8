"""Harmonic lattice, spectral cell integrals, and plane-wave vector tests."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from holomimo import (
    AngularPowerSpectrum,
    VmfComponent,
    build_lattice,
    build_planar_array,
    build_variance_table,
    enumerate_lattice,
    harmonic_angles,
    harmonic_vector,
)
import holomimo.lattice as lat
from holomimo.errors import DegenerateSpectrum, IndexOutsideEllipse, NonPositiveInput
from holomimo.lattice import harmonic_geometry
from marginal_integral_oracle import marginal_integral

ISO = AngularPowerSpectrum.isotropic()
TWO_PI = 2.0 * math.pi


def brute_force_count(ax, ay):
    """Independent enumeration oracle: scan a generous integer box."""
    bound = int(max(ax, ay)) + 2
    count = 0
    for ix in range(-bound, bound + 1):
        for iy in range(-bound, bound + 1):
            if (ix / ax) ** 2 + (iy / ay) ** 2 <= 1.0:
                count += 1
    return count


class TestEnumeration:
    @pytest.mark.parametrize("ax,ay", [(4, 4), (1, 1), (0.5, 0.5), (2.5, 1.5), (3, 2)])
    def test_count_matches_brute_force(self, ax, ay):
        assert len(enumerate_lattice(ax, ay)) == brute_force_count(ax, ay)

    def test_reference_counts(self):
        assert len(enumerate_lattice(4.0, 4.0)) == 49
        assert len(enumerate_lattice(1.0, 1.0)) == 5
        assert len(enumerate_lattice(0.5, 0.5)) == 1

    def test_lambda_lattice_members(self):
        assert [(i.ix, i.iy) for i in enumerate_lattice(1.0, 1.0)] == [
            (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0),
        ]

    def test_sorted_lexicographically(self):
        idx = enumerate_lattice(4.0, 4.0)
        assert idx == sorted(idx)

    def test_aperture_swap_transposes(self):
        a = {(i.ix, i.iy) for i in enumerate_lattice(3.0, 1.5)}
        b = {(i.iy, i.ix) for i in enumerate_lattice(1.5, 3.0)}
        assert a == b


class TestHarmonicGeometry:
    @pytest.mark.parametrize("ax,ay", [(4.0, 4.0), (1.0, 1.0), (1.5, 1.5), (2.5, 1.5),
                                       (1.0, 2.0), (0.5, 0.5)])
    def test_it_holds_what_the_scalar_functions_give(self, ax, ay):
        geometry = harmonic_geometry(ax, ay)
        assert len(geometry.indices) == brute_force_count(ax, ay)
        assert list(geometry.indices) == sorted(geometry.indices)
        for j, index in enumerate(geometry.indices):
            assert (geometry.ix[j], geometry.iy[j]) == index
            strips = lat._cell_strips(index, ax, ay)
            assert geometry.strips[j] == tuple(strips)
            assert (j in geometry.support) == bool(strips)
            assert (geometry.elevation[j], geometry.azimuth[j]) == harmonic_angles(index, ax, ay)
        assert geometry.support.tolist() == sorted(geometry.support.tolist())

    def test_one_record_per_aperture_with_read_only_arrays(self):
        geometry = harmonic_geometry(4.0, 4.0)
        assert harmonic_geometry(4, 4) is geometry
        for name in ("support", "ix", "iy", "elevation", "azimuth"):
            array = getattr(geometry, name)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_public_functions_return_fresh_values(self):
        indices = enumerate_lattice(4.0, 4.0)
        assert isinstance(indices, list) and len(indices) == 49
        indices.clear()
        assert len(enumerate_lattice(4.0, 4.0)) == 49
        lattice = lat.indicator_lattice(1.0, 1.0, ISO)
        assert lattice.marginal_integrals.flags.writeable
        assert lattice.marginal_integrals.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]

    @pytest.mark.parametrize("ax,ay", [(0.0, 1.0), (1.0, -2.0)])
    def test_nonpositive_apertures_are_rejected(self, ax, ay):
        with pytest.raises(NonPositiveInput):
            enumerate_lattice(ax, ay)
        with pytest.raises(NonPositiveInput):
            harmonic_geometry(ax, ay)


class TestHarmonicAngles:
    def test_broadside(self):
        assert harmonic_angles((0, 0), 4.0, 4.0) == (0.0, 0.0)

    def test_grazing(self):
        elevation, azimuth = harmonic_angles((4, 0), 4.0, 4.0)
        assert math.degrees(elevation) == pytest.approx(90.0)
        assert azimuth == 0.0

    def test_four_quadrant_azimuth(self):
        elevation, azimuth = harmonic_angles((0, -2), 4.0, 4.0)
        assert math.degrees(elevation) == pytest.approx(30.0)
        assert math.degrees(azimuth) == pytest.approx(-90.0)

    def test_outside_ellipse_rejected(self):
        with pytest.raises(IndexOutsideEllipse):
            harmonic_angles((5, 0), 4.0, 4.0)
        with pytest.raises(IndexOutsideEllipse):
            marginal_integral((3, 3), ISO, 4.0, 4.0)


class TestMarginalIntegrals:
    @pytest.mark.parametrize("aperture", [1.0, 2.5, 4.0])
    def test_isotropic_cells_tile_the_hemisphere(self, aperture):
        lattice = build_lattice(aperture, aperture, ISO)
        assert lattice.total_integral == pytest.approx(TWO_PI, rel=1e-9)

    def test_mirror_symmetry_in_azimuth(self):
        # Under the sign-symmetric cell convention, negating iy mirrors the
        # cell across v=0, so a v-symmetric spectrum gives equal integrals.
        comp = VmfComponent(
            weight=1.0, mean_azimuth=0.0, mean_elevation=1.0, concentration=30.0
        )
        spec = AngularPowerSpectrum.mixture([comp])
        for ix, iy in [(0, 1), (1, 2), (2, 1), (3, 2)]:
            a = marginal_integral((ix, iy), spec, 4.0, 4.0)
            b = marginal_integral((ix, -iy), spec, 4.0, 4.0)
            assert a == pytest.approx(b, rel=1e-6, abs=1e-12)

    def test_mixture_linearity(self):
        # The integral is linear in the mixture weights (the representable
        # form of scaling invariance for probability-normalized spectra).
        c1 = VmfComponent(1.0, 0.4, 1.2, 80.0)
        c2 = VmfComponent(1.0, -1.5, 0.6, 15.0)
        mix = AngularPowerSpectrum.mixture(
            [
                VmfComponent(0.3, 0.4, 1.2, 80.0),
                VmfComponent(0.7, -1.5, 0.6, 15.0),
            ]
        )
        for index in [(0, 0), (1, 1), (-2, 0)]:
            whole = marginal_integral(index, mix, 4.0, 4.0)
            parts = 0.3 * marginal_integral(
                index, AngularPowerSpectrum.mixture([c1]), 4.0, 4.0
            ) + 0.7 * marginal_integral(
                index, AngularPowerSpectrum.mixture([c2]), 4.0, 4.0
            )
            assert whole == pytest.approx(parts, rel=1e-9, abs=1e-15)

    def test_central_cell_against_dense_reference(self):
        # Independent oracle: dense midpoint quadrature in raw direction
        # cosines with the 1/sqrt Jacobian.
        for index, aperture in [((0, 0), 1.0), ((1, 1), 4.0), ((3, 0), 4.0)]:
            value = marginal_integral(index, ISO, aperture, aperture)
            step = 1.0 / aperture

            def interval(k):
                if k > 0:
                    return k * step, (k + 1) * step
                if k < 0:
                    return (k - 1) * step, k * step
                return -step, step

            (u0, u1), (v0, v1) = interval(index[0]), interval(index[1])
            n = 4001
            u = np.linspace(u0, u1, n + 1)[:-1] + (u1 - u0) / (2 * n)
            v = np.linspace(v0, v1, n + 1)[:-1] + (v1 - v0) / (2 * n)
            uu, vv = np.meshgrid(u, v, indexing="ij")
            r2 = uu**2 + vv**2
            integrand = np.where(r2 < 1.0, 1.0 / np.sqrt(np.maximum(1e-300, 1.0 - r2)), 0.0)
            reference = integrand.sum() * (u1 - u0) * (v1 - v0) / n**2
            assert value == pytest.approx(reference, rel=5e-3)

    def test_rim_cells_on_the_boundary_capture_nothing(self):
        assert marginal_integral((4, 0), ISO, 4.0, 4.0) == 0.0
        assert marginal_integral((-4, 0), ISO, 4.0, 4.0) == 0.0

    def test_refinement_stability(self):
        # Doubling the base Gauss orders changes converged integrals by far
        # less than the contracted 1e-3 relative.
        from holomimo import lattice as lat

        comp = VmfComponent(1.0, 0.7, 1.1, 453.2641)
        spec = AngularPowerSpectrum.mixture([comp])
        baseline = [
            marginal_integral(i, spec, 2.0, 2.0) for i in enumerate_lattice(2, 2)
        ]
        coarse, fine = lat._N_COARSE, lat._N_FINE
        try:
            lat._N_COARSE, lat._N_FINE = 2 * coarse, 2 * fine
            refined = [
                marginal_integral(i, spec, 2.0, 2.0) for i in enumerate_lattice(2, 2)
            ]
        finally:
            lat._N_COARSE, lat._N_FINE = coarse, fine
        for a, b in zip(baseline, refined):
            assert a == pytest.approx(b, rel=1e-3, abs=1e-12)


class TestGaussLegendre:
    def test_rule_matches_numpys_leggauss(self):
        # numpy's own weights are up to 1.3e-12 relative off the exact ones
        # at n = 64 (against a 40-digit reference), so weights are held to
        # 1e-14 of the rule's total weight 2, not to each weight's size.
        from holomimo import lattice as lat

        for n in (*range(1, 65), 128, 256):
            x, w = lat._leggauss(n)
            x_ref, w_ref = np.polynomial.legendre.leggauss(n)
            np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=4e-16)
            np.testing.assert_allclose(w, w_ref, rtol=0.0, atol=1e-14)

    def test_rule_integrates_polynomials_to_degree_2n_minus_1(self):
        from holomimo import lattice as lat

        for n in (*range(1, 65), 128, 256):
            x, w = lat._leggauss(n)
            assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
            for k in range(0, 2 * n, 2):
                assert w @ x**k == pytest.approx(2.0 / (k + 1), rel=5e-14, abs=0)


class TestVarianceTable:
    def test_normalized_total(self):
        variances = build_variance_table(
            build_lattice(4.0, 4.0, ISO), build_lattice(1.0, 1.0, ISO)
        )
        assert variances.sum() == pytest.approx(1.0, abs=1e-9)

    def test_product_cardinality(self):
        bs = build_lattice(0.5, 0.5, ISO)  # single harmonic
        ue = build_lattice(1.0, 1.0, ISO)  # five harmonics
        variances = build_variance_table(bs, ue)
        assert variances.shape == (5, 1)
        assert variances.size == 5

    def test_central_pair_is_largest(self):
        lattice = build_lattice(1.0, 1.0, ISO)
        variances = build_variance_table(lattice, lattice)
        center_ue = lattice.indices.index((0, 0))
        center_bs = lattice.indices.index((0, 0))
        assert variances[center_ue, center_bs] == variances.max()
        assert variances[center_ue, center_bs] > 0

    def test_degenerate_spectrum_rejected(self):
        # A spectrum buried at the antipode with huge concentration leaves
        # exactly zero mass on the visible hemisphere.
        comp = VmfComponent(1.0, 0.0, math.pi, 1e6)
        spec = AngularPowerSpectrum.mixture([comp])
        dead = build_lattice(1.0, 1.0, spec)
        with pytest.raises(DegenerateSpectrum):
            build_variance_table(dead, build_lattice(1.0, 1.0, ISO))

    @staticmethod
    def scaled(lattice, total):
        return replace(lattice, marginal_integrals=lattice.marginal_integrals
                       * (total / lattice.total_integral))

    @pytest.mark.parametrize("total", [1e-160, 1e-200, 1e-300, 1e250])
    def test_tiny_and_huge_totals_normalize_each_end(self, total):
        # The product of the two totals would underflow to 0 or overflow.
        bs, ue = build_lattice(2.0, 2.0, ISO), build_lattice(1.5, 1.5, ISO)
        reference = build_variance_table(bs, ue)
        variances = build_variance_table(
            self.scaled(bs, total), self.scaled(ue, total)
        )
        assert np.all(np.isfinite(variances))
        assert variances.sum() == pytest.approx(1.0, rel=1e-14)
        np.testing.assert_allclose(variances, reference, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("end", ["bs", "ue"])
    def test_subnormal_total_is_degenerate(self, end):
        lattices = {"bs": build_lattice(2.0, 2.0, ISO),
                    "ue": build_lattice(1.5, 1.5, ISO)}
        lattices[end] = self.scaled(lattices[end], sys.float_info.min / 2)
        with pytest.raises(DegenerateSpectrum, match="vanished"):
            build_variance_table(lattices["bs"], lattices["ue"])

    def test_subnormal_total_in_one_cell_is_that_cells_indicator(self):
        bs = build_lattice(2.0, 2.0, ISO)
        ue = build_lattice(1.5, 1.5, ISO)
        cells = np.zeros_like(ue.marginal_integrals)
        cells[3] = 1e-316
        variances = build_variance_table(bs, replace(ue, marginal_integrals=cells))
        reference = build_variance_table(bs, ue)
        np.testing.assert_array_equal(np.delete(variances, 3, axis=0), 0.0)
        np.testing.assert_allclose(variances[3], reference.sum(axis=0),
                                   rtol=1e-14)

    def test_table_is_computed_once_and_read_only(self):
        variances = build_variance_table(build_lattice(2.0, 2.0, ISO),
                                         build_lattice(1.0, 1.0, ISO))
        assert not variances.flags.writeable


class TestHarmonicVectors:
    def test_broadside_vector_is_constant(self):
        g = build_planar_array(2.0, 2.0, 0.5, 0.5)
        vec = harmonic_vector((0, 0), g)
        np.testing.assert_allclose(vec, np.full(g.count, 1.0 / 4.0), atol=1e-15)

    def test_unit_norm(self):
        g = build_planar_array(4.0, 4.0, 0.25, 0.25)
        for index in [(0, 0), (3, -2), (-4, 0), (1, 1)]:
            assert np.linalg.norm(harmonic_vector(index, g)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_two_distinct_indices_orthogonal_at_half_wavelength(self):
        g = build_planar_array(4.0, 4.0, 0.5, 0.5)
        a = harmonic_vector((1, 0), g)
        b = harmonic_vector((0, 1), g)
        assert abs(np.vdot(a, b)) < 1e-10
        c = harmonic_vector((2, -3), g)
        assert abs(np.vdot(a, c)) < 1e-10

    @pytest.mark.parametrize("spacing", [0.5, 0.25])
    def test_gram_identity_on_non_degenerate_aperture(self, spacing):
        g = build_planar_array(2.5, 2.5, spacing, spacing)
        idx = enumerate_lattice(2.5, 2.5)
        basis = np.column_stack([harmonic_vector(i, g, -1) for i in idx])
        gram = basis.conj().T @ basis
        assert np.abs(gram - np.eye(len(idx))).max() < 1e-10

    def test_gram_identity_quarter_wavelength_full_lattice(self):
        g = build_planar_array(4.0, 4.0, 0.25, 0.25)
        idx = enumerate_lattice(4.0, 4.0)
        basis = np.column_stack([harmonic_vector(i, g, -1) for i in idx])
        gram = basis.conj().T @ basis
        assert np.abs(gram - np.eye(len(idx))).max() < 1e-10

    def test_nyquist_pair_aliases_at_half_wavelength(self):
        # At half-wavelength sampling on an integer-wavelength aperture the
        # closed-ellipse boundary pair (+L, iy) and (-L, iy) sample to
        # anti-parallel vectors; these carry zero spectral variance.
        g = build_planar_array(4.0, 4.0, 0.5, 0.5)
        a = harmonic_vector((4, 0), g)
        b = harmonic_vector((-4, 0), g)
        assert abs(abs(np.vdot(a, b)) - 1.0) < 1e-12

    def test_transmit_sign_conjugates(self):
        g = build_planar_array(2.0, 2.0, 0.25, 0.25)
        tx = harmonic_vector((1, -1), g, -1)
        rx = harmonic_vector((1, -1), g, +1)
        np.testing.assert_allclose(tx, rx.conj(), atol=1e-15)

    def test_outside_ellipse_rejected(self):
        g = build_planar_array(1.0, 1.0, 0.5, 0.5)
        with pytest.raises(IndexOutsideEllipse):
            harmonic_vector((1, 1), g)
