"""Channel synthesis tests: bases, moments, determinism."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holomimo import (
    AngularPowerSpectrum,
    CouplingProfile,
    ElementPattern,
    build_lattice,
    build_plan,
    build_planar_array,
    build_variance_table,
    enumerate_lattice,
    harmonic_vector,
    sample_channel,
)
from holomimo.synthesis import MASK64, draw_block
from draw_coefficients_oracle import draw_coefficients
from expected_frobenius_oracle import expected_frobenius

ISO = AngularPowerSpectrum.isotropic()
UNIFORM = ElementPattern.uniform()


def unit_profile(geometry, pattern=UNIFORM):
    """Coupling profile with ideal (unit) element efficiencies."""
    n = geometry.count
    return CouplingProfile(
        patterns=(pattern,) * n,
        efficiencies=np.ones(n),
    )


def scaled_profile(geometry, efficiency, pattern=UNIFORM):
    n = geometry.count
    e = np.full(n, efficiency)
    return CouplingProfile(
        patterns=(pattern,) * n,
        efficiencies=e,
    )


def simple_plan(bs_ap=2.0, ue_ap=1.0, spacing=0.5, bs_eff=None, ue_eff=None,
                bs_pattern=UNIFORM, ue_pattern=UNIFORM):
    """(plan, isotropic variances) of a bs_ap x ue_ap wavelength link."""
    bs = build_planar_array(bs_ap, bs_ap, spacing, spacing)
    ue = build_planar_array(ue_ap, ue_ap, spacing, spacing)
    bs_cp = unit_profile(bs, bs_pattern) if bs_eff is None else scaled_profile(bs, bs_eff, bs_pattern)
    ue_cp = unit_profile(ue, ue_pattern) if ue_eff is None else scaled_profile(ue, ue_eff, ue_pattern)
    variances = build_variance_table(build_lattice(bs_ap, bs_ap, ISO),
                                     build_lattice(ue_ap, ue_ap, ISO))
    return build_plan(bs, ue, bs_cp, ue_cp), variances


class TestBases:
    def test_uniform_patterns_reduce_to_plain_harmonics(self):
        bs = build_planar_array(2.0, 2.0, 0.25, 0.25)
        plan, _ = simple_plan(bs_ap=2.0, ue_ap=1.0, spacing=0.25)
        idx = enumerate_lattice(2.0, 2.0)
        plain = np.column_stack([harmonic_vector(i, bs, -1) for i in idx])
        np.testing.assert_allclose(plan.bs_basis, plain, atol=1e-12)
        norms = np.linalg.norm(plan.bs_basis, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_half_wavelength_apertures_are_single_column(self):
        plan, _ = simple_plan(bs_ap=0.5, ue_ap=0.5, spacing=0.5)
        assert plan.bs_basis.shape == (1, 1)
        assert plan.ue_basis.shape == (1, 1)

    def test_column_count_equals_lattice_cardinality(self):
        plan, _ = simple_plan(bs_ap=4.0, ue_ap=1.0, spacing=0.5)
        assert plan.bs_basis.shape == (64, 49)
        assert plan.ue_basis.shape == (4, 5)

    def test_dipole_nulls_broadside_column(self):
        plan, _ = simple_plan(bs_ap=2.0, ue_ap=1.0, spacing=0.5, ue_pattern=ElementPattern.dipole())
        ue_idx = enumerate_lattice(1.0, 1.0)
        broadside = ue_idx.index((0, 0))
        np.testing.assert_array_equal(plan.ue_basis[:, broadside], 0.0)


class TestSampling:
    def test_zero_efficiency_gives_zero_matrix(self):
        plan, variances = simple_plan(bs_eff=0.0, ue_eff=0.0)
        h = sample_channel(plan, variances, 1, 0)
        np.testing.assert_array_equal(h, 0.0)

    def test_single_harmonic_lattices_give_rank_one(self):
        plan, variances = simple_plan(bs_ap=0.5, ue_ap=0.5, spacing=0.25)
        for r in range(5):
            h = sample_channel(plan, variances, 3, r)
            s = np.linalg.svd(h, compute_uv=False)
            assert s[0] > 0
            assert np.all(s[1:] < 1e-12 * s[0])

    def test_bitwise_determinism(self):
        plan, variances = simple_plan()
        a = sample_channel(plan, variances, 123456789, 17)
        b = sample_channel(plan, variances, 123456789, 17)
        assert np.array_equal(a, b)

    def test_different_indices_differ(self):
        plan, variances = simple_plan()
        a = sample_channel(plan, variances, 1, 0)
        b = sample_channel(plan, variances, 1, 1)
        c = sample_channel(plan, variances, 2, 0)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_amplitude_scaling_is_exact_in_binary(self):
        # Quarter efficiency at both ends scales amplitudes by 1/2 each,
        # hence every realization by exactly 1/4 in floating point.
        full, variances = simple_plan()
        quarter, _ = simple_plan(bs_eff=0.25, ue_eff=0.25)
        a = sample_channel(full, variances, 9, 4)
        b = sample_channel(quarter, variances, 9, 4)
        assert np.array_equal(b, 0.25 * a)


class TestMoments:
    def test_expected_frobenius_unit_case(self):
        plan, variances = simple_plan(bs_ap=2.0, ue_ap=1.0, spacing=0.5)
        assert expected_frobenius(plan, variances) == pytest.approx(16 * 4, abs=1e-9)

    def test_expected_frobenius_quarter_efficiencies(self):
        plan, variances = simple_plan(bs_eff=0.25, ue_eff=0.25)
        assert expected_frobenius(plan, variances) == pytest.approx(
            16 * 4 * 0.0625, rel=1e-12
        )

    def test_expected_frobenius_zero_receive_end(self):
        plan, variances = simple_plan(ue_eff=0.0)
        assert expected_frobenius(plan, variances) == 0.0

    def test_sample_mean_matches_expectation(self):
        plan, variances = simple_plan(bs_ap=2.0, ue_ap=1.0, spacing=0.5)
        target = expected_frobenius(plan, variances)
        draws = 2000
        total = 0.0
        for r in range(draws):
            h = sample_channel(plan, variances, 2024, r)
            total += np.linalg.norm(h) ** 2
        assert total / draws == pytest.approx(target, rel=0.05)

    def test_entry_covariance_against_direct_expansion(self):
        # 2x2-element toy arrays; the oracle expands the synthesis formula
        # entry by entry: Cov(H_ab, H_cd) = N_R*N_S * sum sigma^2 *
        # g_R(l)_a g_R(l)_c^* g_S(m)_b^* g_S(m)_d.
        plan, variances = simple_plan(bs_ap=2.0, ue_ap=2.0, spacing=1.0)
        assert plan.bs_count == 4 and plan.ue_count == 4
        g_r = plan.ue_amplitudes[:, None] * plan.ue_basis
        g_s = plan.bs_amplitudes[:, None] * plan.bs_basis
        scale = plan.ue_count * plan.bs_count

        def oracle(a, b, c, d):
            total = 0.0 + 0.0j
            for li in range(variances.shape[0]):
                for mi in range(variances.shape[1]):
                    total += (
                        variances[li, mi]
                        * g_r[a, li]
                        * np.conj(g_r[c, li])
                        * np.conj(g_s[b, mi])
                        * g_s[d, mi]
                    )
            return scale * total

        draws = 20000
        samples = np.empty((draws, 4, 4), dtype=complex)
        for r in range(draws):
            samples[r] = sample_channel(plan, variances, 77, r)
        pairs = [((0, 0), (0, 0)), ((0, 0), (1, 1)), ((1, 2), (3, 0)), ((2, 2), (2, 2))]
        for (a, b), (c, d) in pairs:
            sample_cov = np.mean(samples[:, a, b] * np.conj(samples[:, c, d]))
            expected = oracle(a, b, c, d)
            assert abs(sample_cov - expected) <= 0.10 * max(abs(expected), 0.3)

    def test_mean_is_zero(self):
        plan, variances = simple_plan(bs_ap=1.0, ue_ap=1.0, spacing=0.5)
        draws = 4000
        acc = np.zeros((plan.ue_count, plan.bs_count), dtype=complex)
        for r in range(draws):
            acc += sample_channel(plan, variances, 5, r)
        assert np.abs(acc / draws).max() < 0.1



# Keys as the sweep forms them: a realization index, or (index << 32) | user.
KEY = st.one_of(
    st.sampled_from([0, MASK64]),
    st.integers(0, MASK64),
    st.builds(lambda r, k: (r << 32) | k, st.integers(0, 2**32 - 1), st.integers(0, 9)),
)


@settings(max_examples=60, deadline=None)
@example(seed=0, keys=[0, MASK64, (7 << 32) | 3], tables=[0, 1, 0])
@example(seed=MASK64, keys=[MASK64, 0], tables=[1, 1])
@given(
    seed=st.one_of(st.sampled_from([0, MASK64]), st.integers(-(2**63), MASK64)),
    keys=st.lists(KEY, min_size=1, max_size=6),
    tables=st.lists(st.integers(0, 2), min_size=6, max_size=6),
)
def test_block_draw_is_each_one_draw_bit_for_bit(seed, keys, tables):
    # Three variance tables, one with zero rows and columns as outside the
    # disk; each key draws on one of them, and keys may repeat.
    rng = np.random.default_rng(3)
    choices = [rng.random((2, 5)), rng.random((2, 5)), rng.random((2, 5))]
    choices[2][0] = 0.0
    choices[2][:, 4] = 0.0
    chosen = [choices[t] for t in tables[:len(keys)]]
    block = draw_block(chosen, seed, keys)
    expected = np.stack([draw_coefficients(t, seed, key) for t, key in zip(chosen, keys)])
    assert block.shape == expected.shape
    assert block.tobytes() == expected.tobytes()
