"""Oracles of the multi-user sum-capacity solver.

``holomimo.capacity.mu_sum_capacity`` steps toward the water-filling
response with a monotone step search and stops on a certified duality gap,
in the coordinates of the span of the users' rows.
``uncompressed_sum_capacity`` is the same iteration on the channels as
given, in the full transmit dimension: the slow path it replaced.  The
averaged-update loop ``averaged_sum_capacity``, stopping on a sum-rate
change below ``tol``, is the oracle of the step search.
"""

import math

import numpy as np

from holomimo import CapacityReport, waterfill
from holomimo.capacity import _adjoint
from holomimo.errors import NonFiniteChannel, NumericalError


def _hermitize(matrix: np.ndarray) -> np.ndarray:
    return 0.5 * (matrix + _adjoint(matrix))


def averaged_sum_capacity(
    channels,
    total_power: float,
    tol: float = 1e-6,
    max_iterations: int = 1000,
) -> CapacityReport:
    """Downlink sum capacity via the dual multiple-access channel.

    Each iteration whitens every user by the interference of the others,
    water-fills all whitened eigenmodes jointly against the common budget,
    and applies the averaged covariance update
    new = (1/K)*waterfill + (K-1)/K*old.  Iteration stops when the sum rate
    changes by less than ``tol`` bits, or flags the report as not converged
    after ``max_iterations``.
    """
    channels = [np.ascontiguousarray(h, dtype=complex) for h in channels]
    n_tx = channels[0].shape[1]

    k_users = len(channels)
    covariances = [
        np.eye(h.shape[0], dtype=complex) * (total_power / (k_users * h.shape[0]))
        for h in channels
    ]
    identity = np.eye(n_tx, dtype=complex)
    ln2 = math.log(2.0)

    history = []
    converged = False
    iterations = 0
    while True:
        own = [h.conj().T @ (q @ h) for q, h in zip(covariances, channels)]
        coupled = _hermitize(identity + sum(own))
        history.append(float(np.linalg.slogdet(coupled)[1] / ln2))
        if len(history) > 1 and abs(history[-1] - history[-2]) < tol:
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
        offset = 0
        for idx, (lam, vec) in enumerate(zip(eigvals, eigvecs)):
            p = allocation.powers[offset : offset + lam.size]
            offset += lam.size
            filled = (vec * p[None, :]) @ vec.conj().T
            covariances[idx] = (
                filled / k_users + covariances[idx] * (k_users - 1) / k_users
            )

    return CapacityReport(
        value_bits=history[-1],
        covariances=covariances,
        iterations=iterations,
        converged=converged,
        history=np.array(history),
    )


def uncompressed_sum_capacity(
    channels,
    total_power: float,
    tol: float = 1e-6,
    max_iterations: int = 1000,
) -> CapacityReport:
    """Downlink sum capacity via the dual multiple-access channel, solved in
    the full transmit dimension of the channels as given.

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

    Users are stacked, padded with zero rows (no gain, so no power) to the
    largest receive count.  One solve gives every Y_k = L^{-1} H_k^H, with
    coupled = L L^H and G_k = Y_k^H Y_k, and the Woodbury identity turns
    W_k = H_k (coupled - H_k^H Q_k H_k)^{-1} H_k^H into G_k (I - Q_k G_k)^{-1}.
    """
    channels = [np.asarray(h, dtype=complex) for h in channels]
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
    r_max = max(h.shape[0] for h in channels)
    stacked = np.zeros((k_users, r_max, n_tx), dtype=complex)
    covariances = np.zeros((k_users, r_max, r_max), dtype=complex)
    for k, h in enumerate(channels):
        rows = h.shape[0]
        stacked[k, :rows] = h
        covariances[k, range(rows), range(rows)] = total_power / (k_users * rows)
    columns = stacked.reshape(-1, n_tx).conj().T  # every H_k^H, side by side
    ln2 = math.log(2.0)
    iterations = 0
    # Overflow, a NaN or a failed factorization all mean that a coupled
    # matrix has lost positive definiteness in floating point.
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            coupled = _hermitize(
                np.eye(n_tx) + columns @ (covariances @ stacked).reshape(-1, n_tx)
            )
            rate = float(np.linalg.slogdet(coupled)[1] / ln2)
            history = [rate]
            while True:
                factor = np.linalg.cholesky(coupled)
                flat = np.linalg.solve(factor, columns)  # every Y_k, side by side
                projected = flat.reshape(n_tx, k_users, r_max).swapaxes(0, 1)
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
                mu = np.linalg.eigvalsh(flat @ change.reshape(-1, n_tx))
                step = 1.0
                gain = np.log1p(mu).sum()
                while gain < 0.0 and step > 1.0 / k_users:
                    step = max(step / 2.0, 1.0 / k_users)
                    gain = np.log1p(step * mu).sum()
                covariances = covariances + step * (responses - covariances)
                coupled = _hermitize(
                    np.eye(n_tx) + columns @ (covariances @ stacked).reshape(-1, n_tx)
                )
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
        covariances=[q[:r, :r] for q, r in zip(covariances, map(len, channels))],
        iterations=iterations,
        converged=bool(gap <= tol),
        gap_bits=float(gap),
        history=np.array(history),
    )
