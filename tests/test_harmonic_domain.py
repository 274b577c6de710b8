"""Harmonic-domain channels against the element-domain oracle.

The sweep evaluates capacity on M = s * R_R C R_S^H, the channel in the
coordinates of the thin QRs of the two efficiency-weighted bases.  Every
value it yields is checked here against ``sample_channel``, the element
matrix H = Q_R M Q_S^H, and the vectorized basis construction against the
per-element loop it replaced.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from holomimo import (
    AngularPowerSpectrum,
    ElementPattern,
    build_coupling_profile,
    build_lattice,
    build_plan,
    build_planar_array,
    drop_users,
    harmonic_angles,
    harmonic_vector,
    load_cdl_table,
    load_pattern_file,
    mu_sum_capacity,
    rotate_spectrum,
    sample_channel,
    spectra_from_cdl,
    su_capacity,
)
from holomimo.config import bundled_cdl_path
from holomimo.coupling import HALF_WAVE_EFFICIENCY
from holomimo.synthesis import sample_harmonic_channel
from expected_frobenius_oracle import expected_frobenius

ISO = AngularPowerSpectrum.isotropic()
CDL_BS, CDL_UE = spectra_from_cdl(
    load_cdl_table(bundled_cdl_path())[0], asd_deg=10.0, asa_deg=20.0
)


def make_plan(bs_aperture, ue_aperture, spacing, bs_spectrum, ue_spectrum,
              pattern=ElementPattern.uniform(), eta=1.0):
    bs = build_planar_array(bs_aperture, bs_aperture, spacing, spacing)
    ue = build_planar_array(ue_aperture, ue_aperture, spacing, spacing)
    return build_plan(
        bs, ue, bs_spectrum, ue_spectrum,
        build_coupling_profile(bs, pattern, eta * HALF_WAVE_EFFICIENCY),
        build_coupling_profile(ue, pattern, eta * HALF_WAVE_EFFICIENCY),
    )


def loop_basis(geometry, lattice, coupling, sign):
    """The per-element, per-harmonic loop that built the bases before they
    were vectorized: one scalar ``ElementPattern.gain`` call per element
    and harmonic."""
    columns = np.empty((geometry.count, lattice.cardinality), dtype=complex)
    for j, index in enumerate(lattice.indices):
        theta, phi = harmonic_angles(index, lattice.aperture_x, lattice.aperture_y)
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
        lattice = build_lattice(2.0, 1.0, ISO)
        plan = build_plan(geometry, geometry, ISO, ISO, coupling, coupling,
                          bs_lattice=lattice, ue_lattice=lattice)
        assert plan.bs_basis.shape == (2, 7)
        np.testing.assert_array_equal(
            plan.bs_basis, loop_basis(geometry, lattice, coupling, -1)
        )
        np.testing.assert_array_equal(
            plan.ue_basis, loop_basis(geometry, lattice, coupling, +1)
        )

    def test_shared_dipole_pattern_matches_the_loop(self):
        geometry = build_planar_array(2.0, 2.0, 0.5, 0.5)
        coupling = build_coupling_profile(
            geometry, ElementPattern.dipole(), 1.0 * HALF_WAVE_EFFICIENCY
        )
        lattice = build_lattice(2.0, 2.0, ISO)
        plan = build_plan(geometry, geometry, ISO, ISO, coupling, coupling,
                          bs_lattice=lattice, ue_lattice=lattice)
        np.testing.assert_allclose(
            plan.bs_basis, loop_basis(geometry, lattice, coupling, -1),
            rtol=0.0, atol=1e-15,
        )


class TestReducedChannel:
    def test_factors_reproduce_the_weighted_bases(self):
        # At half-wave spacing the 1-wavelength end has 4 elements but 5
        # harmonics, so R_R is 4 x 5.
        plan = make_plan(4.0, 1.0, 0.5, CDL_BS, CDL_UE, eta=0.8)
        assert plan.ue_r.shape == (4, 5)
        assert plan.bs_r.shape == (49, 49)
        for r, basis, amplitudes in (
            (plan.ue_r, plan.ue_basis, plan.ue_amplitudes),
            (plan.bs_r, plan.bs_basis, plan.bs_amplitudes),
        ):
            weighted = amplitudes[:, None] * basis
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
        plan = make_plan(
            bs_aperture, ue_aperture, spacing,
            rotate_spectrum(bs_spectrum, bs_angle),
            rotate_spectrum(ue_spectrum, ue_angle),
            pattern=ElementPattern.dipole() if dipole else ElementPattern.uniform(),
            eta=eta,
        )
        reduced = sample_harmonic_channel(plan, 3, realization)
        element = sample_channel(plan, 3, realization).matrix
        assert reduced.shape[0] <= element.shape[0]
        assert reduced.shape[1] <= element.shape[1]
        assert su_capacity(reduced, snr_db).value_bits == pytest.approx(
            su_capacity(element, snr_db).value_bits, rel=1e-9
        )

    def test_mean_squared_norm_matches_expected_frobenius(self):
        plan = make_plan(
            2.0, 1.5, 0.25, rotate_spectrum(CDL_BS, 0.7),
            rotate_spectrum(CDL_UE, -2.0), eta=0.6,
        )
        draws = 2000
        total = sum(
            np.linalg.norm(sample_harmonic_channel(plan, 2024, r)) ** 2
            for r in range(draws)
        )
        assert total / draws == pytest.approx(expected_frobenius(plan), rel=0.05)


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
        plan = make_plan(
            2.0, 1.5, spacing,
            rotate_spectrum(CDL_BS, math.radians(drop.azimuth_deg)),
            rotate_spectrum(CDL_UE, math.radians(drop.orientation_deg)),
        )
        gain = 10.0 ** (drop.snr_db / 20.0)
        harmonic.append(gain * sample_harmonic_channel(plan, seed, k))
        element.append(gain * sample_channel(plan, seed, k).matrix)
    budget = 10.0 ** (5.0 / 10.0)
    reduced = mu_sum_capacity(harmonic, budget, tol=1e-9)
    full = mu_sum_capacity(element, budget, tol=1e-9)
    assert reduced.converged and full.converged
    assert harmonic[0].shape[1] < element[0].shape[1]
    assert reduced.value_bits == pytest.approx(full.value_bits, rel=0.0, abs=1e-5)
