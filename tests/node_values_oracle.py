"""Spectrum at a tile batch's nodes, one VMF cluster at a time.

``holomimo.lattice._pair_values`` forms the exponents of the clusters that
survive the cull on a tile, of every spectrum pending there, with one
matrix product of their exponent rows (alpha * mean, ln(coef) - alpha) and
one ``exp`` per block; this per-cluster loop over one spectrum, which
gathers each cluster's surviving tiles and scatters the textbook terms
coef * exp(alpha * (mean . node - 1)) back, is the tests' oracle for it.
"""

import numpy as np

import holomimo.lattice as lat
from cell_integrals_oracle import cap_bound


def node_values(mixture, peaks, points: np.ndarray, cap, pending) -> np.ndarray:
    """Spectrum at the nodes (4, T, m) of T tiles, shape (T, m); the fourth
    homogeneous coordinate is not read.

    A VMF term is skipped on a tile that is not ``pending`` (T,), or where
    the cap bound puts alpha * (dot - peak) below -_CULL_EXPONENT at every
    node, ``peaks`` being the terms' _hemisphere_peaks."""
    means, alphas, coefs, constant = mixture
    values = np.full(points.shape[1:], constant)
    active = alphas * (cap_bound(cap, means) - peaks) >= -lat._CULL_EXPONENT
    active &= pending[:, None]
    for k in np.flatnonzero(active.any(axis=0)):
        rows = active[:, k]
        if rows.all():
            rows = slice(None)
        nodes = points[:3, rows]
        dots = (means[k] @ nodes.reshape(3, -1)).reshape(nodes.shape[1:])
        values[rows] += coefs[k] * np.exp(alphas[k] * (dots - 1.0))
    return values
