"""Water-filling, pathloss, user-drop, and multi-user solver tests."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from holomimo import (
    drop_users,
    mu_sum_capacity,
    su_capacity,
    uma_pathloss_delta_db,
    waterfill,
)
from holomimo.errors import (
    EmptyGains,
    NonFiniteChannel,
    NonPositiveDistance,
    ZeroChannel,
)
from sum_capacity_oracle import averaged_sum_capacity

UMA_100M_DB = -11.764252230548385  # -39.08 * log10(2), frozen


def random_complex(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


class TestWaterfill:
    def test_single_mode(self):
        alloc, capacity = waterfill([1.0], 1.0)
        assert capacity == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(alloc.powers, [1.0], atol=1e-12)

    def test_symmetric_two_modes(self):
        alloc, capacity = waterfill([1.0, 1.0], 2.0)
        assert capacity == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(alloc.powers, [1.0, 1.0], atol=1e-12)

    def test_weak_mode_shut_off(self):
        alloc, capacity = waterfill([1.0, 0.1], 1.0)
        assert capacity == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(alloc.powers, [1.0, 0.0], atol=1e-12)
        assert alloc.water_level == pytest.approx(2.0, abs=1e-12)

    def test_budget_met_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            gains = rng.uniform(0.01, 10.0, size=rng.integers(1, 12))
            budget = rng.uniform(0.1, 20.0)
            alloc, _ = waterfill(gains, budget)
            assert alloc.powers.sum() == pytest.approx(budget, rel=1e-12)
            assert np.all(alloc.powers >= 0.0)

    def test_kkt_conditions(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            gains = rng.uniform(0.01, 10.0, size=8)
            alloc, _ = waterfill(gains, rng.uniform(0.1, 5.0))
            active = alloc.powers > 0
            levels = alloc.powers[active] + 1.0 / gains[active]
            assert levels.max() - levels.min() < 1e-9
            assert np.all(1.0 / gains[~active] >= alloc.water_level - 1e-9)

    def test_dominates_random_allocations(self):
        rng = np.random.default_rng(7)
        gains = np.array([2.0, 1.0, 0.5, 0.25, 0.05])
        budget = 3.0
        _, best = waterfill(gains, budget)
        shares = rng.dirichlet(np.ones(gains.size), size=1000) * budget
        rates = np.sum(np.log2(1.0 + shares * gains[None, :]), axis=1)
        assert np.all(rates <= best + 1e-12)

    def test_empty_gains(self):
        with pytest.raises(EmptyGains):
            waterfill([], 1.0)
        with pytest.raises(EmptyGains):
            waterfill([0.0, 0.0], 1.0)

    def test_gain_with_overflowing_reciprocal_gets_no_power(self):
        # 1/1e-320 overflows to inf, a level no finite water level reaches;
        # counting it in the water level would make it inf and the power nan.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alloc, capacity = waterfill([1.0, 1e-320], 1.0)
            report = su_capacity(np.diag([1.0, 1e-161]), 0.0)
        np.testing.assert_array_equal(alloc.powers, [1.0, 0.0])
        assert capacity == 1.0
        assert alloc.water_level == 2.0
        assert report.value_bits == 1.0
        with pytest.raises(EmptyGains):
            waterfill([1e-320], 1.0)
        # 1/1e-308 is finite but near the float maximum: the scaled running
        # sum gives the exact unscaled allocation.
        alloc, capacity = waterfill([1.0, 1e-308], 1.0)
        np.testing.assert_array_equal(alloc.powers, [1.0, 0.0])
        assert (capacity, alloc.water_level) == (1.0, 2.0)

    def test_product_past_the_float_maximum_stays_finite(self):
        # p*g = 4e308 overflows; log2(p) + log2(g + 1/p) does not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alloc, capacity = waterfill([4.0], 1e308)
        assert alloc.powers[0] == 1e308
        assert capacity == math.log2(1e308) + 2.0

    @given(
        exponents=st.lists(
            st.floats(min_value=-320.0, max_value=3.0), min_size=1, max_size=8
        ),
        budget=st.floats(min_value=1e-3, max_value=1e3),
    )
    # Reciprocals whose running sum overflows, and gains either side of the
    # overflow threshold 1/g = inf.
    @example(exponents=[-308.0, -308.0], budget=1.0)
    @example(exponents=[-307.0] * 8, budget=1e3)
    @example(exponents=[-308.2547, -308.2548, 0.0], budget=1e-3)
    def test_kkt_conditions_over_extreme_gains(self, exponents, budget):
        gains = 10.0 ** np.array(exponents)
        with np.errstate(divide="ignore", over="ignore"):
            finite = np.isfinite(1.0 / gains)
        if not finite.any():
            with pytest.raises(EmptyGains):
                waterfill(gains, budget)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alloc, capacity = waterfill(gains, budget)
        powers, mu = alloc.powers, alloc.water_level
        assert math.isfinite(mu) and math.isfinite(capacity)
        assert np.all(powers >= 0.0)
        assert np.all(powers[~finite] == 0.0)
        active = powers > 0.0
        # Every quantity is exact to rounding at the scale of the water level.
        tol = 1e-12 * mu * gains.size
        assert powers.sum() == pytest.approx(budget, abs=tol)
        inv = 1.0 / gains[finite]
        level = powers[finite] + inv
        np.testing.assert_allclose(level[active[finite]], mu, rtol=1e-12)
        assert np.all(inv[~active[finite]] >= mu * (1.0 - 1e-12))
        assert capacity == pytest.approx(
            float(np.sum(np.log2(1.0 + powers * gains))), rel=1e-12
        )


class TestSingleUserCapacity:
    def test_scalar_unit_channel(self):
        report = su_capacity(np.array([[1.0]]), 0.0)
        assert report.value_bits == pytest.approx(1.0, abs=1e-12)

    def test_identity_channel_equal_split(self):
        report = su_capacity(np.eye(2), 10.0 * math.log10(2.0))
        assert report.value_bits == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(report.allocation.powers, 1.0, atol=1e-12)

    def test_scaling_identity_rank_one(self):
        for c in (0.5, 2.0, 7.0):
            h = np.array([[c]])
            report = su_capacity(h, 0.0)
            assert report.value_bits == pytest.approx(
                math.log2(1.0 + c * c), rel=1e-12
            )

    def test_scaling_matches_scaled_gains(self):
        rng = np.random.default_rng(8)
        h = random_complex(rng, (3, 5))
        c = 1.7
        direct = su_capacity(c * h, 3.0).value_bits
        s = np.linalg.svd(h, compute_uv=False)
        _, expected = waterfill((c * s) ** 2, 10.0 ** (3.0 / 10.0))
        assert direct == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_snr(self):
        rng = np.random.default_rng(9)
        h = random_complex(rng, (2, 4))
        values = [su_capacity(h, snr).value_bits for snr in (-10, -3, 0, 3, 10, 20)]
        assert np.all(np.diff(values) > 0)

    def test_monotone_in_any_singular_value(self):
        base = np.diag([2.0, 1.0, 0.4])
        reference = su_capacity(base, 3.0).value_bits
        for mode in range(3):
            boosted = base.copy()
            boosted[mode, mode] *= 1.3
            assert su_capacity(boosted, 3.0).value_bits >= reference

    def test_zero_channel_rejected(self):
        with pytest.raises(ZeroChannel):
            su_capacity(np.zeros((2, 2)), 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_channel_rejected(self, bad):
        h = np.eye(2, dtype=complex)
        h[1, 0] = bad
        with pytest.raises(NonFiniteChannel):
            su_capacity(h, 0.0)


class TestPathloss:
    def test_reference_distance(self):
        assert uma_pathloss_delta_db(50.0) == 0.0

    def test_doubling_distance(self):
        assert uma_pathloss_delta_db(100.0) == pytest.approx(UMA_100M_DB, rel=1e-12)

    def test_halving_distance_symmetric(self):
        assert uma_pathloss_delta_db(25.0) == pytest.approx(-UMA_100M_DB, rel=1e-12)

    def test_nonpositive_distance(self):
        with pytest.raises(NonPositiveDistance):
            uma_pathloss_delta_db(0.0)


class TestDrops:
    def test_count_and_ranges(self):
        drops = drop_users(10, 42)
        assert len(drops) == 10
        for d in drops:
            assert 25.0 <= d.distance_m <= 100.0
            assert -120.0 <= d.azimuth_deg <= 120.0
            assert -180.0 <= d.orientation_deg < 180.0
            assert math.isfinite(d.snr_db)

    def test_deterministic(self):
        assert drop_users(5, 7) == drop_users(5, 7)
        assert drop_users(5, 7) != drop_users(5, 8)

    def test_prefix_stability(self):
        # user k depends on (seed, k) only, not on the total count
        assert drop_users(10, 3)[:4] == drop_users(4, 3)

    def test_snr_is_relative_pathloss(self):
        (drop,) = drop_users(1, 12345)
        assert drop.snr_db == uma_pathloss_delta_db(drop.distance_m)

    def test_needs_at_least_one_user(self):
        with pytest.raises(ValueError):
            drop_users(0, 1)


class TestMultiUser:
    def test_single_user_matches_waterfilling(self):
        rng = np.random.default_rng(10)
        h = random_complex(rng, (3, 6))
        target = su_capacity(h, 0.0).value_bits
        report = mu_sum_capacity([h], 1.0, tol=1e-9)
        assert report.converged
        assert report.value_bits == pytest.approx(target, abs=1e-6)

    def test_two_user_orthogonal_closed_form(self):
        gain, budget = 2.0, 1.5
        h1 = np.zeros((1, 4), dtype=complex)
        h2 = np.zeros((1, 4), dtype=complex)
        h1[0, 0] = math.sqrt(gain)
        h2[0, 1] = math.sqrt(gain)
        report = mu_sum_capacity([h1, h2], budget, tol=1e-10)
        closed_form = 2.0 * math.log2(1.0 + gain * budget / 2.0)
        assert report.value_bits == pytest.approx(closed_form, abs=1e-6)
        # brute-force oracle over the scalar power split
        splits = np.linspace(0.0, budget, 4001)
        rates = np.log2(1.0 + gain * splits) + np.log2(1.0 + gain * (budget - splits))
        assert report.value_bits == pytest.approx(rates.max(), abs=1e-6)

    def test_sum_rate_never_decreases_across_iterations(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            k = int(rng.integers(2, 5))
            n_tx = int(rng.integers(2, 6))
            channels = [
                random_complex(rng, (int(rng.integers(1, 4)), n_tx)) for _ in range(k)
            ]
            report = mu_sum_capacity(channels, 2.0)
            assert np.all(np.diff(report.history) >= -1e-9)

    def test_zeroing_other_users_recovers_single_user(self):
        rng = np.random.default_rng(12)
        h = random_complex(rng, (2, 4))
        zeros = [np.zeros((2, 4), dtype=complex) for _ in range(2)]
        report = mu_sum_capacity([h] + zeros, 1.0, tol=1e-10)
        target = su_capacity(h, 0.0).value_bits
        assert report.value_bits == pytest.approx(target, abs=1e-6)

    def test_adding_a_user_never_hurts(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n_tx = 4
            first = [random_complex(rng, (2, n_tx)) for _ in range(2)]
            extra = random_complex(rng, (2, n_tx))
            base = mu_sum_capacity(first, 1.0, tol=1e-10).value_bits
            more = mu_sum_capacity(first + [extra], 1.0, tol=1e-10).value_bits
            assert more >= base - 1e-6

    def test_inconsistent_widths_rejected(self):
        with pytest.raises(ValueError):
            mu_sum_capacity(
                [np.ones((1, 3), dtype=complex), np.ones((1, 4), dtype=complex)], 1.0
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_channel_rejected(self, bad):
        rng = np.random.default_rng(15)
        channels = [random_complex(rng, (2, 4)) for _ in range(3)]
        channels[2][0, 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteChannel):
                mu_sum_capacity(channels, 1.0)

    def test_report_flags_convergence(self):
        rng = np.random.default_rng(14)
        h = [random_complex(rng, (2, 4)) for _ in range(3)]
        tight = mu_sum_capacity(h, 1.0)
        assert tight.converged and tight.iterations < 1000
        forced = mu_sum_capacity(h, 1.0, tol=0.0, max_iterations=5)
        assert not forced.converged and forced.iterations == 5


def certified_gap_bits(channels, covariances, total_power):
    """Duality gap of the dual-MAC covariances, from an explicit inverse.

    The gradient of the sum rate (in nats) with respect to Q_k is
    G_k = H_k (I + sum_j H_j^H Q_j H_j)^{-1} H_k^H; the best feasible
    direction puts all power on the top eigenvector of the largest G_k.
    """
    n_tx = channels[0].shape[1]
    coupled = np.eye(n_tx, dtype=complex)
    for h, q in zip(channels, covariances):
        coupled = coupled + h.conj().T @ q @ h
    inverse = np.linalg.inv(coupled)
    gradients = [h @ inverse @ h.conj().T for h in channels]
    top = max(np.linalg.eigvalsh(g)[-1] for g in gradients)
    used = sum(np.trace(g @ q).real for g, q in zip(gradients, covariances))
    return (total_power * top - used) / math.log(2.0)


def explicit_sum_capacity_history(channels, total_power, tol, max_iterations=1000):
    """Sum rates and accepted steps of sum-power iterative water-filling.

    Each user's whitening is formed from I + sum_{j != k} H_j^H Q_j H_j,
    summed explicitly, and inverted directly, as is the full sum for the
    duality gap and for the eigenvalues that give each trial step's rate
    change.  The step search and the stop rule are those of
    ``mu_sum_capacity``.
    """
    k_users = len(channels)
    n_tx = channels[0].shape[1]
    covariances = [
        np.eye(h.shape[0]) * (total_power / (k_users * h.shape[0])) for h in channels
    ]

    def coupled(covs, skip=None):
        total = np.eye(n_tx, dtype=complex)
        for j, (h, q) in enumerate(zip(channels, covs)):
            if j != skip:
                total = total + h.conj().T @ q @ h
        return total

    history = [np.linalg.slogdet(coupled(covariances))[1] / math.log(2.0)]
    steps = []
    while True:
        gap = certified_gap_bits(channels, covariances, total_power)
        if gap <= tol or len(history) > max_iterations:
            break
        modes = []
        for k, h in enumerate(channels):
            whitened = h @ np.linalg.inv(coupled(covariances, skip=k)) @ h.conj().T
            lam, vec = np.linalg.eigh(0.5 * (whitened + whitened.conj().T))
            modes.append((np.maximum(lam, 0.0), vec))
        allocation, _ = waterfill(np.concatenate([lam for lam, _ in modes]), total_power)
        responses = []
        offset = 0
        for lam, vec in modes:
            p = allocation.powers[offset : offset + lam.size]
            offset += lam.size
            responses.append((vec * p) @ vec.conj().T)
        # log det(C + t*D) - log det(C) = sum log(1 + t*mu), mu = eig(C^{-1} D)
        change = np.zeros((n_tx, n_tx), dtype=complex)
        for h, w, q in zip(channels, responses, covariances):
            change = change + h.conj().T @ (w - q) @ h
        mu = np.linalg.eigvals(np.linalg.inv(coupled(covariances)) @ change).real
        step = 1.0
        while np.log1p(step * mu).sum() < 0.0 and step > 1.0 / k_users:
            step = max(step / 2.0, 1.0 / k_users)
        covariances = [q + step * (w - q) for q, w in zip(covariances, responses)]
        history.append(np.linalg.slogdet(coupled(covariances))[1] / math.log(2.0))
        steps.append(step)
    return np.array(history), steps


def test_whitening_matches_explicit_leave_one_out_sums():
    # Per-user gains over six decades make strong users dominate the coupled
    # matrix, so removing a user's own term cancels most of it.  Below a gap
    # of ~1e-7 bits a step changes the sum rate by ~1e-16 nats, so which step
    # the search accepts is decided by rounding and two exact implementations
    # part ways; the default tolerance stops before that.
    rng = np.random.default_rng(20)
    for _ in range(150):
        n_tx = int(rng.integers(2, 12))
        channels = [
            random_complex(rng, (int(rng.integers(1, 5)), n_tx))
            * 10.0 ** (rng.uniform(-3.0, 3.0) / 2.0)
            for _ in range(int(rng.integers(2, 6)))
        ]
        budget = 10.0 ** rng.uniform(-1.0, 1.0)
        report = mu_sum_capacity(channels, budget, tol=1e-6)
        expected, _ = explicit_sum_capacity_history(channels, budget, tol=1e-6)
        assert report.iterations == expected.size - 1
        np.testing.assert_allclose(report.history, expected, rtol=0.0, atol=1e-9)


def test_step_search_backs_off_where_the_full_step_lowers_the_rate():
    # Six two-row users on four transmit dimensions at high power: here the
    # full water-filling step would lower the sum rate at iteration 7.
    rng = np.random.default_rng(88)
    channels = [random_complex(rng, (2, 4)) for _ in range(6)]
    report = mu_sum_capacity(channels, 30.0)
    expected, steps = explicit_sum_capacity_history(channels, 30.0, tol=1e-6)
    assert min(steps) < 1.0
    assert report.converged and report.iterations == expected.size - 1
    np.testing.assert_allclose(report.history, expected, rtol=0.0, atol=1e-9)
    assert np.all(np.diff(report.history) >= 0.0)


def test_certified_solver_bounds_the_averaged_oracle():
    rng = np.random.default_rng(21)
    tol = 1e-6
    for _ in range(200):
        n_tx = int(rng.integers(2, 12))
        channels = [
            random_complex(rng, (int(rng.integers(1, 5)), n_tx))
            * 10.0 ** (rng.uniform(-3.0, 3.0) / 2.0)
            for _ in range(int(rng.integers(2, 6)))
        ]
        budget = 10.0 ** rng.uniform(-1.0, 1.0)
        report = mu_sum_capacity(channels, budget, tol=tol)
        oracle = averaged_sum_capacity(channels, budget, tol=tol).value_bits
        assert report.converged
        assert report.gap_bits <= tol
        assert report.gap_bits == pytest.approx(
            certified_gap_bits(channels, report.covariances, budget), abs=1e-10
        )
        assert np.all(np.diff(report.history) >= 0.0)
        assert report.value_bits >= oracle - 1e-9
        # The gap bounds the distance to the sum capacity, and so to the oracle.
        assert oracle <= report.value_bits + report.gap_bits + 1e-12


@pytest.mark.parametrize(
    "users,shape,seed",
    [(6, (2, 4), 78), (6, (2, 4), 88), (8, (2, 6), 25), (6, (3, 6), 3), (5, (2, 3), 21)],
)
def test_overloaded_instances_certify_within_max_iterations(users, shape, seed):
    # More receive rows than transmit dimensions at high power: the step
    # search needs tens to hundreds of iterations here (the averaged step
    # alone would need 244-1171), against 2-11 on the presets.
    rng = np.random.default_rng(seed)
    channels = [random_complex(rng, shape) for _ in range(users)]
    report = mu_sum_capacity(channels, 30.0)
    assert report.converged
    assert report.gap_bits <= 1e-6
    expected, _ = explicit_sum_capacity_history(channels, 30.0, tol=1e-6)
    assert report.iterations == expected.size - 1
    np.testing.assert_allclose(report.history, expected, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize(
    "rows,n_tx,power",
    [
        ((5,) * 10, 49, 1e3),
        ((5,) * 10, 49, 1e6),
        ((5,) * 10, 49, 1e9),
        ((3, 4, 1, 4, 3, 5, 1, 1, 3, 4), 16, 1e6),
    ],
)
def test_high_power_instances_certify_near_the_explicit_reference(rows, n_tx, power):
    # Ten users of the presets' harmonic shape far above their 0 dB
    # reference, and ten users of mixed row counts that the solver pads with
    # zero rows.  The two solvers round differently, which at such powers can
    # move the stop by an iteration, so only the values are compared.
    rng = np.random.default_rng(30)
    channels = [random_complex(rng, (r, n_tx)) for r in rows]
    tol = 1e-6
    report = mu_sum_capacity(channels, power, tol=tol)
    expected, steps = explicit_sum_capacity_history(channels, power, tol=tol)
    assert report.converged and report.gap_bits <= tol
    assert len(steps) < 1000  # the reference stopped on its gap, too
    assert report.value_bits == pytest.approx(expected[-1], rel=0.0, abs=2 * tol)
