"""Capacity evaluation: water-filling, multi-user sum capacity, user drops.

Single-user capacity water-fills the channel's squared singular values under
a total power budget with unit noise per receive element; a stack of
channels takes one batched SVD and water-fills every row at once.  Multi-user
downlink sum capacity is computed through the dual multiple-access channel
under a sum power constraint by simultaneous per-user water-filling with a
monotone step search, stopping on a certified duality gap.  The solver
first replaces the users by their coordinates in the span of their rows,
which leaves the sum capacity unchanged; each iteration then takes one
solve of that span's dimension, at most the total receive count, and
whitens every user by unit noise plus the other users' interference with
one solve of its receive dimension.
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
    "waterfill_rows",
    "waterfill",
    "su_capacities",
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


def waterfill_rows(gains, total_power: float):
    """Optimal power allocation over the parallel channels of each row.

    ``gains`` is (rows, n), and every row is water-filled on its own against
    the whole budget.  Returns the powers (rows, n), p_i = max(0, mu - 1/g_i)
    with the row's water level mu chosen so its powers sum to the budget,
    the water levels (rows,) and the capacities sum_i log2(1 + p_i*g_i)
    (rows,).  The active set is found exactly: a row's reciprocals are
    sorted ascending, the closed-form water level of every active-set size
    comes from their running sum, and the active set ends before the first
    size whose level fails the consistency test.  Nonpositive gains, and
    gains so small that 1/g overflows (which no finite water level
    reaches), receive zero power and take no part in the test.
    """
    g = np.asarray(gains, dtype=float)
    rows, n = g.shape
    if n == 0:
        raise EmptyGains("no channel gains")
    if total_power <= 0:
        raise ValueError(f"total power must be positive, got {total_power}")
    usable = g > 1.0 / _FLOAT_MAX  # exactly the gains with a finite 1/g
    counts = usable.sum(axis=-1)
    if not counts.all():
        raise EmptyGains("no positive channel gains with a finite reciprocal")

    order = np.argsort(np.where(usable, g, -np.inf), axis=-1)[:, ::-1]
    row = np.arange(rows)
    ranks = np.arange(n)
    sorted_usable = ranks < counts[:, None]
    with np.errstate(divide="ignore", over="ignore"):  # unusable: set below
        inv = 1.0 / g[row[:, None], order]
    inv[~sorted_usable] = np.inf
    # Reciprocals near the float maximum could overflow their running sum.
    # A power-of-two scale is exact (short of subnormals), so results match.
    scale = np.ones(rows)
    for k in np.flatnonzero(inv[row, counts - 1] > _FLOAT_MAX / (2 * counts)):
        scale[k] = 0.5 ** (int(counts[k]).bit_length() + 1)
    cumulative = np.cumsum(inv * scale[:, None], axis=-1)
    # Largest k with (P + sum_{i<=k} 1/g_i)/k >= 1/g_k keeps all k powers
    # nonnegative; the condition fails monotonically beyond the optimum, so
    # the active set ends before the first size that fails.
    levels = (total_power * scale[:, None] + cumulative) / (ranks + 1)
    fails = (levels < inv * scale[:, None]) | ~sorted_usable
    sizes = np.where(fails.any(axis=-1), fails.argmax(axis=-1), n)
    mu = levels[row, sizes - 1] / scale

    powers = np.zeros(g.shape)
    powers[row[:, None], order] = np.subtract(
        mu[:, None], inv, out=np.zeros(g.shape), where=ranks < sizes[:, None]
    )

    with np.errstate(over="ignore"):  # p*g past the float maximum
        rates = np.log2(1.0 + powers * g)
    huge = np.isinf(rates)  # log2(1 + p*g) = log2(p) + log2(g + 1/p) there
    rates[huge] = np.log2(powers[huge]) + np.log2(g[huge] + 1.0 / powers[huge])
    return powers, mu, rates.sum(axis=-1)


def waterfill(gains, total_power: float) -> tuple[PowerAllocation, float]:
    """Water-filling of one gain vector: the one-row case of
    ``waterfill_rows``, returning the allocation and the capacity."""
    g = np.asarray(gains, dtype=float).reshape(1, -1)
    powers, mu, capacities = waterfill_rows(g, total_power)
    allocation = PowerAllocation(powers=powers[0], water_level=float(mu[0]))
    return allocation, float(capacities[0])


def su_capacities(channels: np.ndarray, snr_db: float):
    """Single-user capacities of a stack of channel matrices.

    ``channels`` is (rows, receive, transmit); each matrix's squared
    singular values are water-filled on their own (``waterfill_rows``), with
    unit noise power per receive element and the total transmit power
    budget 10^(snr_db/10).  Returns the powers per singular value, the
    water levels and the capacities in bits.  A zero singular value gets no
    power.  One bad matrix fails the whole stack.
    """
    channels = np.asarray(channels)
    if not np.isfinite(channels).all():
        raise NonFiniteChannel("channel has NaN or infinite entries")
    singular = np.linalg.svd(channels, compute_uv=False)
    if not singular.shape[-1] or (singular < 1e-300).all(axis=-1).any():
        raise ZeroChannel("all singular values are numerically zero")
    return waterfill_rows(singular ** 2, 10.0 ** (snr_db / 10.0))


def su_capacity(channel: np.ndarray, snr_db: float) -> CapacityReport:
    """Single-user capacity of one channel matrix by water-filling its
    modes: the one-matrix case of ``su_capacities``."""
    powers, mu, capacities = su_capacities(np.asarray(channel)[None], snr_db)
    return CapacityReport(
        value_bits=float(capacities[0]),
        allocation=PowerAllocation(powers=powers[0], water_level=float(mu[0])),
    )


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
    return 0.5 * (matrix + _adjoint(matrix))


def _adjoint(matrix: np.ndarray) -> np.ndarray:
    return matrix.conj().swapaxes(-1, -2)


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

    The iteration runs in the span of the users' rows: the thin QR
    [H_1; ...; H_K]^H = Q R gives H_k = R_k^H Q^H with Q an isometry, so
    the R_k^H have the rates, gradients, gap and steps of the H_k in
    min(n, sum_k r_k) dimensions.  Users are stacked, padded with zero rows
    (no gain, so no power) to the largest receive count.  One solve gives
    every Y_k = L^{-1} R_k, with coupled = L L^H and G_k = Y_k^H Y_k, and
    the Woodbury identity turns W_k = H_k (coupled - H_k^H Q_k H_k)^{-1}
    H_k^H into G_k (I - Q_k G_k)^{-1}.
    """
    channels = [np.asarray(h, dtype=complex) for h in channels]
    if not channels:
        raise ValueError("need at least one user channel")
    if any(h.shape[1] != channels[0].shape[1] for h in channels):
        raise ValueError("inconsistent transmit dimension across users")
    if total_power <= 0:
        raise ValueError(f"total power must be positive, got {total_power}")
    if not all(np.isfinite(h).all() for h in channels):
        raise NonFiniteChannel("a user channel has NaN or infinite entries")

    k_users = len(channels)
    counts = [h.shape[0] for h in channels]
    r_max = max(counts)
    span = np.linalg.qr(np.concatenate(channels).conj().T, mode="r")
    dim = span.shape[0]
    stacked = np.zeros((k_users, r_max, dim), dtype=complex)
    covariances = np.zeros((k_users, r_max, r_max), dtype=complex)
    for k, (rows, end) in enumerate(zip(counts, np.cumsum(counts))):
        stacked[k, :rows] = _adjoint(span[:, end - rows:end])
        covariances[k, range(rows), range(rows)] = total_power / (k_users * rows)
    columns = stacked.reshape(-1, dim).conj().T  # every R_k, side by side

    def couple(covariances):  # the coupled matrix I + sum_k H_k^H Q_k H_k
        return _hermitize(
            np.eye(dim) + columns @ (covariances @ stacked).reshape(-1, dim))

    ln2 = math.log(2.0)
    iterations = 0
    # Overflow, a NaN or a failed factorization all mean that a coupled
    # matrix has lost positive definiteness in floating point.
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            coupled = couple(covariances)
            rate = float(np.linalg.slogdet(coupled)[1] / ln2)
            history = [rate]
            while True:
                factor = np.linalg.cholesky(coupled)
                flat = np.linalg.solve(factor, columns)  # every Y_k, side by side
                projected = flat.reshape(dim, k_users, r_max).swapaxes(0, 1)
                gradients = _adjoint(projected) @ projected
                gap = (
                    total_power * np.linalg.eigvalsh(gradients)[:, -1].max()
                    - np.einsum("kij,kji->", gradients, covariances).real
                ) / ln2
                if gap <= tol or iterations >= max_iterations:
                    break
                iterations += 1

                whitened = np.linalg.solve(
                    np.eye(r_max) - gradients @ covariances, gradients
                )
                lam, vec = np.linalg.eigh(_hermitize(whitened))
                allocation, _ = waterfill(np.maximum(lam, 0.0).ravel(), total_power)
                powers = allocation.powers.reshape(k_users, r_max)
                responses = (vec * powers[:, None, :]) @ _adjoint(vec)

                # A step t changes the rate by sum(log1p(t*mu)) nats, mu the
                # eigenvalues of L^{-1} (sum_k H_k^H (W_k - Q_k) H_k) L^{-H}:
                # exact to the rounding of the change itself, not of the rate.
                change = (responses - covariances) @ _adjoint(projected)
                mu = np.linalg.eigvalsh(flat @ change.reshape(-1, dim))
                step = 1.0
                gain = np.log1p(mu).sum()
                while gain < 0.0 and step > 1.0 / k_users:
                    step = max(step / 2.0, 1.0 / k_users)
                    gain = np.log1p(step * mu).sum()
                covariances = covariances + step * (responses - covariances)
                coupled = couple(covariances)
                rate += float(gain) / ln2
                history.append(rate)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        raise NumericalError(
            f"multi-user solver: I + sum_k H_k^H Q_k H_k is not positive "
            f"definite in floating point after {iterations} iterations "
            f"(power budget {total_power:.3g})"
        ) from exc

    return CapacityReport(
        value_bits=rate,
        covariances=[q[:r, :r] for q, r in zip(covariances, counts)],
        iterations=iterations,
        converged=bool(gap <= tol),
        gap_bits=float(gap),
        history=np.array(history),
    )
