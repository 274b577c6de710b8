"""Harmonic-domain channels against the element-domain oracle.

The sweep evaluates capacity on M = s * R_R C R_S^H, the channel in the
coordinates of the thin QRs of the two efficiency-weighted bases.  Every
value it yields is checked here against ``sample_channel``, the element
matrix H = Q_R M Q_S^H, and the vectorized basis construction against the
per-element loop it replaced.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from holomimo import (
    AngularPowerSpectrum,
    ElementPattern,
    build_coupling_profile,
    build_lattice,
    build_plan,
    build_planar_array,
    build_variance_table,
    drop_users,
    harmonic_angles,
    enumerate_lattice,
    harmonic_vector,
    load_cdl_rows,
    load_pattern_file,
    mu_sum_capacity,
    rotate_spectrum,
    sample_channel,
    spectra_from_cdl,
    su_capacity,
)
from holomimo.config import bundled_cdl_path
from holomimo.coupling import HALF_WAVE_EFFICIENCY
from holomimo.synthesis import harmonic_channels
from draw_coefficients_oracle import draw_coefficients
from expected_frobenius_oracle import expected_frobenius
from test_sweep_plans import write_pattern_file

ISO = AngularPowerSpectrum.isotropic()
PATTERN_FILE = Path(__file__).parent / "data" / "pattern_one_element.csv"
CDL_BS, CDL_UE = spectra_from_cdl(
    load_cdl_rows(bundled_cdl_path()), asd_deg=10.0, asa_deg=20.0
)


def make_plan(bs_aperture, ue_aperture, spacing, bs_spectrum, ue_spectrum,
              pattern=ElementPattern.uniform(), eta=1.0):
    """(plan, variances of the two spectra's lattices)."""
    bs = build_planar_array(bs_aperture, bs_aperture, spacing, spacing)
    ue = build_planar_array(ue_aperture, ue_aperture, spacing, spacing)
    plan = build_plan(
        bs, ue,
        build_coupling_profile(bs, pattern, eta * HALF_WAVE_EFFICIENCY),
        build_coupling_profile(ue, pattern, eta * HALF_WAVE_EFFICIENCY),
    )
    return plan, build_variance_table(
        build_lattice(bs_aperture, bs_aperture, bs_spectrum),
        build_lattice(ue_aperture, ue_aperture, ue_spectrum),
    )


def loop_basis(geometry, coupling, sign):
    """The per-element, per-harmonic loop that built the bases before they
    were vectorized: one scalar ``ElementPattern.gain`` call per element
    and harmonic."""
    indices = enumerate_lattice(geometry.aperture_x, geometry.aperture_y)
    columns = np.empty((geometry.count, len(indices)), dtype=complex)
    for j, index in enumerate(indices):
        theta, phi = harmonic_angles(index, geometry.aperture_x, geometry.aperture_y)
        gains = np.array(
            [coupling.patterns[p].gain(theta, phi)
             for p in range(geometry.count)]
        )
        columns[:, j] = harmonic_vector(index, geometry, sign) * gains
    return columns


class TestVectorizedBasis:
    def test_two_element_pattern_file_matches_the_loop(self, tmp_path):
        thetas = [15.0 * i for i in range(7)]
        phis = [-180.0 + 15.0 * i for i in range(24)]
        lines = ["element_index,theta_deg,phi_deg,re,im"]
        for element, twist in ((0, 1.0), (1, -2.5)):
            for t in thetas:
                for p in phis:
                    z = (1.0 + 0.01 * t) * complex(
                        math.cos(math.radians(twist * p)),
                        math.sin(math.radians(twist * p)),
                    )
                    lines.append(f"{element},{t},{p},{z.real!r},{z.imag!r}")
        path = tmp_path / "pattern.csv"
        path.write_text("\n".join(lines) + "\n")
        patterns = load_pattern_file(path)
        assert len(patterns) == 2

        # A 2 x 1 element array on a 2 x 1 wavelength aperture: 7 harmonics,
        # off both axes' broadside.
        geometry = build_planar_array(2.0, 1.0, 1.0, 1.0)
        assert geometry.count == 2
        coupling = build_coupling_profile(
            geometry, patterns, 1.0 * HALF_WAVE_EFFICIENCY
        )
        plan = build_plan(geometry, geometry, coupling, coupling)
        assert plan.bs.basis.shape == (2, 7)
        np.testing.assert_array_equal(
            plan.bs.basis, loop_basis(geometry, coupling, -1)
        )
        np.testing.assert_array_equal(
            plan.ue.basis, loop_basis(geometry, coupling, +1)
        )

    def test_shared_dipole_pattern_matches_the_loop(self):
        geometry = build_planar_array(2.0, 2.0, 0.5, 0.5)
        coupling = build_coupling_profile(
            geometry, ElementPattern.dipole(), 1.0 * HALF_WAVE_EFFICIENCY
        )
        plan = build_plan(geometry, geometry, coupling, coupling)
        np.testing.assert_allclose(
            plan.bs.basis, loop_basis(geometry, coupling, -1),
            rtol=0.0, atol=1e-15,
        )

    # Every preset spacing at both preset apertures, and a non-square one.
    @pytest.mark.parametrize("aperture_x,aperture_y,spacing", [
        (4.0, 4.0, 0.5), (4.0, 4.0, 0.25), (4.0, 4.0, 0.125),
        (1.0, 1.0, 0.5), (1.0, 1.0, 0.25), (1.0, 1.0, 0.125),
        (3.0, 1.5, 0.25),
    ])
    @pytest.mark.parametrize("pattern", ["uniform", "dipole", "filed"])
    def test_bases_are_the_harmonic_vectors_bit_for_bit(self, aperture_x, aperture_y,
                                                        spacing, pattern):
        pattern = {
            "uniform": ElementPattern.uniform(),
            "dipole": ElementPattern.dipole(),
            "filed": load_pattern_file(PATTERN_FILE)[0],
        }[pattern]
        geometry = build_planar_array(aperture_x, aperture_y, spacing, spacing)
        coupling = build_coupling_profile(geometry, pattern, HALF_WAVE_EFFICIENCY)
        plan = build_plan(geometry, geometry, coupling, coupling)
        indices = enumerate_lattice(aperture_x, aperture_y)
        theta, phi = np.array(
            [harmonic_angles(index, aperture_x, aperture_y) for index in indices]
        ).T
        gains = pattern.gain(theta, phi)
        for basis, sign in ((plan.bs.basis, -1), (plan.ue.basis, +1)):
            vectors = np.column_stack([harmonic_vector(i, geometry, sign) for i in indices])
            assert basis.tobytes() == (vectors * gains).tobytes()

    def test_per_element_bases_are_the_harmonic_vectors_bit_for_bit(self, tmp_path):
        # Four distinct gridded patterns on the 2 x 2 elements of
        # 1-wavelength apertures at 1/2 wavelength: row p takes pattern p.
        patterns = load_pattern_file(write_pattern_file(tmp_path / "p.csv", elements=4))
        geometry = build_planar_array(1.0, 1.0, 0.5, 0.5)
        coupling = build_coupling_profile(geometry, patterns, HALF_WAVE_EFFICIENCY)
        plan = build_plan(geometry, geometry, coupling, coupling)
        indices = enumerate_lattice(1.0, 1.0)
        theta, phi = np.array([harmonic_angles(index, 1.0, 1.0) for index in indices]).T
        gains = np.array([p.gain(theta, phi) for p in patterns])
        assert len({row.tobytes() for row in gains}) == 4
        for basis, sign in ((plan.bs.basis, -1), (plan.ue.basis, +1)):
            vectors = np.column_stack([harmonic_vector(i, geometry, sign) for i in indices])
            assert basis.tobytes() == (vectors * gains).tobytes()


# Only harmonics on the lattice ellipse itself have cells outside the disk,
# so apertures are drawn at multiples of a quarter wavelength, which put
# harmonics there, as well as anywhere in 0.5-4 wavelengths.
APERTURE = st.one_of(st.integers(2, 16).map(lambda k: k / 4), st.floats(0.5, 4.0))


@settings(max_examples=25, deadline=None)
@example(bs=(4.0, 4.0), ue=(1.0, 1.0), elements=2, cdl=True, bs_angle=0.3, ue_angle=-1.0)
@given(
    bs=st.tuples(APERTURE, APERTURE),
    ue=st.tuples(APERTURE, APERTURE),
    elements=st.integers(1, 3),
    cdl=st.booleans(),
    bs_angle=st.floats(-math.pi, math.pi),
    ue_angle=st.floats(-math.pi, math.pi),
)
def test_a_plan_drops_only_harmonics_without_variance(
    bs, ue, elements, cdl, bs_angle, ue_angle
):
    # A harmonic whose cell misses the unit disk has no cell integral, so
    # its row or column of every variance table is 0, whatever the spectrum.
    geometries = [build_planar_array(x, y, x / elements, y / elements) for x, y in (bs, ue)]
    couplings = [build_coupling_profile(g, ElementPattern.uniform(), HALF_WAVE_EFFICIENCY)
                 for g in geometries]
    plan = build_plan(*geometries, *couplings)
    bs_spectrum, ue_spectrum = (CDL_BS, CDL_UE) if cdl else (ISO, ISO)
    variances = build_variance_table(
        build_lattice(*bs, rotate_spectrum(bs_spectrum, bs_angle)),
        build_lattice(*ue, rotate_spectrum(ue_spectrum, ue_angle)),
    )
    dropped_ue = np.setdiff1d(np.arange(variances.shape[0]), plan.ue.support)
    dropped_bs = np.setdiff1d(np.arange(variances.shape[1]), plan.bs.support)
    assert plan.ue.support.size and plan.bs.support.size
    assert not variances[dropped_ue].any()
    assert not variances[:, dropped_bs].any()


def axis(spacing):
    """(aperture, spacing) of one axis: a whole number of elements on an
    aperture of 0.5-4 wavelengths."""
    return st.integers(max(1, math.ceil(0.5 / spacing)), int(4.0 / spacing)).map(
        lambda elements: (elements * spacing, spacing))


# From 2 wavelengths, which leaves one or two elements per axis, fewer than
# its harmonics, down to 1/8 wavelength, which leaves up to 32.
AXIS = st.sampled_from([2.0, 1.0, 0.5, 0.25, 0.125]).flatmap(axis)


@settings(max_examples=60, deadline=None)
@example(x=(4.0, 0.125), y=(4.0, 0.125), dipole=False, eta=1.0)
@example(x=(2.0, 2.0), y=(0.5, 0.125), dipole=True, eta=0.0)
# The element-domain Gram underflows to exactly 0 where R^H R is 5e-324.
@example(x=(2.0, 2.0), y=(4.0, 2.0), dipole=False, eta=5e-324)
@given(x=AXIS, y=AXIS, dipole=st.booleans(),
       eta=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
def test_per_axis_r_factors_reproduce_the_element_domain_gram(x, y, dipole, eta):
    # A shared pattern and one efficiency for every element: the plan's R
    # factors come from the per-axis phasors; the weighted element-domain
    # basis is the oracle.
    (aperture_x, spacing_x), (aperture_y, spacing_y) = x, y
    geometry = build_planar_array(aperture_x, aperture_y, spacing_x, spacing_y)
    pattern = ElementPattern.dipole() if dipole else ElementPattern.uniform()
    coupling = build_coupling_profile(geometry, pattern, eta * HALF_WAVE_EFFICIENCY)
    plan = build_plan(geometry, geometry, coupling, coupling)
    assert not any("basis" in end.__dict__ for end in plan)
    for r, basis, amplitudes, support in (
        (plan.bs.r, plan.bs.basis, plan.bs.coupling.amplitudes, plan.bs.support),
        (plan.ue.r, plan.ue.basis, plan.ue.coupling.amplitudes, plan.ue.support),
    ):
        weighted = amplitudes[:, None] * basis[:, support]
        gram = weighted.conj().T @ weighted
        scale = max(np.abs(gram).max(), sys.float_info.min)
        assert np.abs(r.conj().T @ r - gram).max() <= 1e-13 * scale
        if x == y:
            assert r.shape == np.linalg.qr(weighted, mode="r").shape
        else:
            assert r.shape[0] <= len(support) and r.shape[1] == len(support)


class TestReducedChannel:
    def test_factors_reproduce_the_weighted_bases(self):
        # Only the cells that meet the unit disk are kept: the broadside one
        # of the 5 harmonics of the 1-wavelength end, and 45 of the 49 of
        # the 4-wavelength end.
        plan, _ = make_plan(4.0, 1.0, 0.5, CDL_BS, CDL_UE, eta=0.8)
        assert plan.ue.r.shape == (1, 1)
        assert plan.bs.r.shape == (45, 45)
        for r, basis, amplitudes, support in (
            (plan.ue.r, plan.ue.basis, plan.ue.coupling.amplitudes, plan.ue.support),
            (plan.bs.r, plan.bs.basis, plan.bs.coupling.amplitudes, plan.bs.support),
        ):
            weighted = amplitudes[:, None] * basis[:, support]
            np.testing.assert_allclose(
                r.conj().T @ r, weighted.conj().T @ weighted, atol=1e-13
            )

    @settings(max_examples=30, deadline=None)
    @given(
        bs_aperture=st.sampled_from([1.0, 1.5, 2.0]),
        ue_aperture=st.sampled_from([0.5, 1.0, 1.5]),
        spacing=st.sampled_from([0.5, 0.25]),
        cdl=st.booleans(),
        bs_angle=st.floats(-math.pi, math.pi),
        ue_angle=st.floats(-math.pi, math.pi),
        dipole=st.booleans(),
        eta=st.floats(0.05, 1.0),
        snr_db=st.floats(-20.0, 30.0),
        realization=st.integers(0, 2**40),
    )
    def test_single_user_capacity_equals_the_element_domain(
        self, bs_aperture, ue_aperture, spacing, cdl, bs_angle, ue_angle,
        dipole, eta, snr_db, realization,
    ):
        # The dipole nulls the broadside harmonic, the only one with power on
        # apertures under 1.5 wavelengths; both domains then raise.
        assume(not dipole or min(bs_aperture, ue_aperture) == 1.5)
        bs_spectrum, ue_spectrum = (CDL_BS, CDL_UE) if cdl else (ISO, ISO)
        plan, variances = make_plan(
            bs_aperture, ue_aperture, spacing,
            rotate_spectrum(bs_spectrum, bs_angle),
            rotate_spectrum(ue_spectrum, ue_angle),
            pattern=ElementPattern.dipole() if dipole else ElementPattern.uniform(),
            eta=eta,
        )
        reduced = harmonic_channels(plan, draw_coefficients(variances, 3, realization))
        element = sample_channel(plan, variances, 3, realization)
        assert reduced.shape[0] <= element.shape[0]
        assert reduced.shape[1] <= element.shape[1]
        assert su_capacity(reduced, snr_db).value_bits == pytest.approx(
            su_capacity(element, snr_db).value_bits, rel=1e-9
        )

    def test_mean_squared_norm_matches_expected_frobenius(self):
        plan, variances = make_plan(
            2.0, 1.5, 0.25, rotate_spectrum(CDL_BS, 0.7),
            rotate_spectrum(CDL_UE, -2.0), eta=0.6,
        )
        draws = 2000
        total = sum(
            np.linalg.norm(harmonic_channels(plan, draw_coefficients(variances, 2024, r))) ** 2
            for r in range(draws)
        )
        assert total / draws == pytest.approx(expected_frobenius(plan, variances), rel=0.05)


@pytest.mark.parametrize(
    "users, spacing, seed",
    [(2, 0.5, 1), (2, 0.25, 2), (3, 0.5, 3), (3, 0.25, 4)],
)
def test_multi_user_sum_capacity_equals_the_element_domain(users, spacing, seed):
    # Users see differently rotated CDL-B spectra, so their channels share
    # only the transmit basis; the harmonic channels are in common transmit
    # coordinates only because that basis, and hence R_S, is the same.
    harmonic, element = [], []
    for k, drop in enumerate(drop_users(users, seed)):
        plan, variances = make_plan(
            2.0, 1.5, spacing,
            rotate_spectrum(CDL_BS, math.radians(drop.azimuth_deg)),
            rotate_spectrum(CDL_UE, math.radians(drop.orientation_deg)),
        )
        gain = 10.0 ** (drop.snr_db / 20.0)
        harmonic.append(gain * harmonic_channels(plan, draw_coefficients(variances, seed, k)))
        element.append(gain * sample_channel(plan, variances, seed, k))
    budget = 10.0 ** (5.0 / 10.0)
    reduced = mu_sum_capacity(harmonic, budget, tol=1e-9)
    full = mu_sum_capacity(element, budget, tol=1e-9)
    assert reduced.converged and full.converged
    assert harmonic[0].shape[1] < element[0].shape[1]
    assert reduced.value_bits == pytest.approx(full.value_bits, rel=0.0, abs=1e-5)
