"""Sum-power iterative water-filling with the averaged covariance update.

``holomimo.capacity.mu_sum_capacity`` steps toward the water-filling
response with a monotone step search and stops on a certified duality gap;
this averaged-update loop, stopping on a sum-rate change below ``tol``, is
the tests' oracle for it.
"""

import math

import numpy as np

from holomimo import CapacityReport, waterfill


def _hermitize(matrix: np.ndarray) -> np.ndarray:
    return 0.5 * (matrix + matrix.conj().T)


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
