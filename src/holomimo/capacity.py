"""Capacity evaluation: water-filling, multi-user sum capacity, user drops.

Single-user capacity water-fills the channel's squared singular values under
a total power budget with unit noise per receive element.  Multi-user
downlink sum capacity is computed through the dual multiple-access channel
under a sum power constraint by simultaneous per-user water-filling with a
monotone step search, stopping on a certified duality gap.  Each user is
whitened by unit noise plus the other users' interference with one direct
solve of the transmit dimension, which the sweep keeps at the transmit
harmonic count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyGains,
    NonFiniteChannel,
    NonPositiveDistance,
    NumericalError,
    ZeroChannel,
)
from .synthesis import MASK64

__all__ = [
    "PowerAllocation",
    "CapacityReport",
    "UserDrop",
    "waterfill",
    "su_capacity",
    "uma_pathloss_delta_db",
    "drop_users",
    "mu_sum_capacity",
]

# Distance slope of the urban-macro NLOS pathloss law, dB per decade.
_UMA_NLOS_SLOPE_DB = 39.08
_REFERENCE_DISTANCE_M = 50.0
_FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class PowerAllocation:
    """Per-mode transmit powers and the common water level."""

    powers: np.ndarray
    water_level: float


@dataclass(frozen=True)
class CapacityReport:
    """Capacity value with the allocation that achieved it."""

    value_bits: float
    allocation: PowerAllocation | None = None
    covariances: list | None = None  # per-user uplink covariances (multi-user)
    iterations: int = 1
    converged: bool = True
    gap_bits: float | None = None  # certified duality gap (multi-user)
    history: np.ndarray | None = field(default=None, repr=False)


def waterfill(gains, total_power: float) -> tuple[PowerAllocation, float]:
    """Optimal power allocation over parallel channels.

    Returns powers p_i = max(0, mu - 1/g_i) with the water level mu chosen
    so the powers sum to the budget, and the capacity sum log2(1 + p_i*g_i).
    The active set is found exactly: gains are sorted descending and the
    closed-form water level for each active-set size is tested for
    consistency.  Nonpositive gains, and gains so small that 1/g overflows
    (which no finite water level reaches), receive zero power.
    """
    g = np.atleast_1d(np.asarray(gains, dtype=float))
    if g.size == 0:
        raise EmptyGains("no channel gains")
    if total_power <= 0:
        raise ValueError(f"total power must be positive, got {total_power}")
    usable = g > 1.0 / _FLOAT_MAX  # exactly the gains with a finite 1/g
    if not usable.any():
        raise EmptyGains("no positive channel gains with a finite reciprocal")

    gp = g[usable]
    order = np.argsort(gp)[::-1]
    inv = 1.0 / gp[order]
    # Reciprocals near the float maximum could overflow their running sum.
    # A power-of-two scale is exact (short of subnormals), so results match.
    scale = 1.0
    if inv[-1] > _FLOAT_MAX / (2 * inv.size):
        scale = 0.5 ** (inv.size.bit_length() + 1)
    cumulative = np.cumsum(inv * scale)
    power = total_power * scale
    # Largest k with (P + sum_{i<=k} 1/g_i)/k >= 1/g_k keeps all k powers
    # nonnegative; the condition fails monotonically beyond the optimum.
    k = 1
    mu = power + cumulative[0]
    for trial in range(2, inv.size + 1):
        trial_mu = (power + cumulative[trial - 1]) / trial
        if trial_mu < inv[trial - 1] * scale:
            break
        k, mu = trial, trial_mu
    mu /= scale

    powers_sorted = np.zeros_like(inv)
    powers_sorted[:k] = mu - inv[:k]
    powers_pos = np.empty_like(inv)
    powers_pos[order] = powers_sorted
    powers = np.zeros_like(g)
    powers[usable] = powers_pos

    capacity = float(np.sum(np.log2(1.0 + powers * g)))
    return PowerAllocation(powers=powers, water_level=float(mu)), capacity


def su_capacity(channel: np.ndarray, snr_db: float) -> CapacityReport:
    """Single-user capacity of a channel matrix by water-filling its modes.

    Unit noise power per receive element; the total transmit power budget is
    10^(snr_db/10).
    """
    channel = np.asarray(channel)
    if not np.isfinite(channel).all():
        raise NonFiniteChannel("channel has NaN or infinite entries")
    singular = np.linalg.svd(channel, compute_uv=False)
    if not singular.size or np.all(singular < 1e-300):
        raise ZeroChannel("all singular values are numerically zero")
    gains = singular[singular > 0.0] ** 2
    budget = 10.0 ** (snr_db / 10.0)
    allocation, capacity = waterfill(gains, budget)
    return CapacityReport(value_bits=capacity, allocation=allocation)


def uma_pathloss_delta_db(distance_m: float) -> float:
    """Relative urban-macro NLOS pathloss in dB against the 50 m reference.

    Only the distance term of the pathloss law survives the reference
    normalization; all distance-independent terms cancel.  Positive values
    mean a stronger link than at 50 m.
    """
    if distance_m <= 0:
        raise NonPositiveDistance(f"distance must be positive, got {distance_m}")
    return -_UMA_NLOS_SLOPE_DB * (
        math.log10(distance_m) - math.log10(_REFERENCE_DISTANCE_M)
    )


@dataclass(frozen=True)
class UserDrop:
    """One user position in the cell sector plus its link budget."""

    distance_m: float
    azimuth_deg: float
    snr_db: float
    orientation_deg: float


def drop_users(count: int, seed: int) -> list[UserDrop]:
    """Drop users uniformly in the sector, deterministically per (seed, index).

    Distance is uniform in [25, 100] m, sector azimuth uniform in
    [-120, 120] degrees, array orientation uniform in [-180, 180) degrees;
    the SNR is the relative pathloss against the 50 m / 0 dB reference.
    """
    if count < 1:
        raise ValueError(f"need at least one user, got {count}")
    drops = []
    for index in range(count):
        rng = np.random.default_rng(
            np.random.SeedSequence((seed & MASK64, index))
        )
        distance = rng.uniform(25.0, 100.0)
        azimuth = rng.uniform(-120.0, 120.0)
        orientation = rng.uniform(-180.0, 180.0)
        drops.append(
            UserDrop(
                distance_m=distance,
                azimuth_deg=azimuth,
                snr_db=uma_pathloss_delta_db(distance),
                orientation_deg=orientation,
            )
        )
    return drops


def _hermitize(matrix: np.ndarray) -> np.ndarray:
    return 0.5 * (matrix + matrix.conj().T)


def mu_sum_capacity(
    channels,
    total_power: float,
    tol: float = 1e-6,
    max_iterations: int = 1000,
) -> CapacityReport:
    """Downlink sum capacity via the dual multiple-access channel.

    ``channels`` holds one matrix per user (receive x transmit elements,
    any per-user SNR scaling already applied), sharing the transmit
    dimension.  Each iteration whitens every user by the interference of the
    others and water-fills all whitened eigenmodes jointly against the common
    budget, which gives the response covariances W.  A monotone step search
    then sets Q <- Q + t*(W - Q): t starts at 1, the full step of sum-power
    iterative water-filling, and halves while the sum rate would fall below
    the current one, down to 1/K, the averaged step, which never lowers the
    rate and is accepted unconditionally.

    Iteration stops once the certified duality gap is at most ``tol`` bits,
    or flags the report as not converged after ``max_iterations`` steps.
    The gap (P*max_k lambda_max(G_k) - sum_k tr(G_k Q_k)) / ln 2, with
    G_k = H_k coupled^{-1} H_k^H the rate's gradient, bounds how far the
    sum rate lies below the sum capacity and is reported as ``gap_bits``.

    User k is whitened by W_k = H_k (coupled - own_k)^{-1} H_k^H, where
    own_k = H_k^H Q_k H_k and coupled = I + sum_j own_j: one direct solve of
    the transmit dimension per user and iteration, and one more for the gap.
    """
    channels = [np.ascontiguousarray(h, dtype=complex) for h in channels]
    if not channels:
        raise ValueError("need at least one user channel")
    n_tx = channels[0].shape[1]
    if any(h.shape[1] != n_tx for h in channels):
        raise ValueError("inconsistent transmit dimension across users")
    if total_power <= 0:
        raise ValueError(f"total power must be positive, got {total_power}")
    if not all(np.isfinite(h).all() for h in channels):
        raise NonFiniteChannel("a user channel has NaN or infinite entries")

    k_users = len(channels)
    covariances = [
        np.eye(h.shape[0], dtype=complex) * (total_power / (k_users * h.shape[0]))
        for h in channels
    ]
    stacked_adjoint = np.concatenate(channels).conj().T
    user_bounds = np.cumsum([h.shape[0] for h in channels])[:-1]
    identity = np.eye(n_tx, dtype=complex)
    ln2 = math.log(2.0)

    own = [h.conj().T @ (q @ h) for q, h in zip(covariances, channels)]
    coupled = _hermitize(identity + sum(own))
    rate = float(np.linalg.slogdet(coupled)[1] / ln2)
    history = [rate]
    converged = False
    iterations = 0
    while True:
        # With coupled = L L^H and Y_k = L^{-1} H_k^H, G_k = Y_k^H Y_k.
        try:
            factor = np.linalg.cholesky(coupled)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"multi-user solver: I + sum_k H_k^H Q_k H_k is not positive "
                f"definite in floating point after {iterations} iterations "
                f"(power budget {total_power:.3g})"
            ) from exc
        projected = np.split(
            np.linalg.solve(factor, stacked_adjoint), user_bounds, axis=1
        )
        gradients = [y.conj().T @ y for y in projected]
        gap = (
            total_power * max(np.linalg.eigvalsh(g)[-1] for g in gradients)
            - sum(np.trace(g @ q).real for g, q in zip(gradients, covariances))
        ) / ln2
        if gap <= tol:
            converged = True
            break
        if iterations >= max_iterations:
            break
        iterations += 1

        eigvals, eigvecs = [], []
        for h, own_k in zip(channels, own):
            whitened = h @ np.linalg.solve(coupled - own_k, h.conj().T)
            lam, vec = np.linalg.eigh(_hermitize(whitened))
            eigvals.append(np.maximum(lam, 0.0))
            eigvecs.append(vec)

        pooled = np.concatenate(eigvals)
        allocation, _ = waterfill(pooled, total_power)
        responses = []
        offset = 0
        for lam, vec in zip(eigvals, eigvecs):
            p = allocation.powers[offset : offset + lam.size]
            offset += lam.size
            responses.append((vec * p[None, :]) @ vec.conj().T)

        # A step t changes the rate by sum(log1p(t*mu)) nats, mu the
        # eigenvalues of L^{-1} (sum_k H_k^H (W_k - Q_k) H_k) L^{-H}: exact
        # to the rounding of the change itself, not of the rate.
        mu = np.linalg.eigvalsh(
            sum(
                y @ (w - q) @ y.conj().T
                for y, w, q in zip(projected, responses, covariances)
            )
        )
        step = 1.0
        gain = np.log1p(mu).sum()
        while gain < 0.0 and step > 1.0 / k_users:
            step = max(step / 2.0, 1.0 / k_users)
            gain = np.log1p(step * mu).sum()
        covariances = [q + step * (w - q) for q, w in zip(covariances, responses)]
        own = [h.conj().T @ (q @ h) for q, h in zip(covariances, channels)]
        coupled = _hermitize(identity + sum(own))
        rate += float(gain) / ln2
        history.append(rate)

    return CapacityReport(
        value_bits=rate,
        covariances=covariances,
        iterations=iterations,
        converged=converged,
        gap_bits=float(gap),
        history=np.array(history),
    )
