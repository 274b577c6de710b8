"""Nodes and weights of the coarse and the fine tensor Gauss-Legendre
rule on each tile, as ``holomimo.lattice._tile_nodes`` computed them in
fresh arrays before it wrote into a pass's workspace: the tests' oracle
for it, which must agree bit for bit.
"""

import numpy as np

from holomimo.lattice import _N_COARSE, _N_FINE, _leggauss


def tile_nodes(tiles: np.ndarray):
    """Nodes and weights of the coarse and the fine tensor Gauss-Legendre
    rule on each tile.

    A tile row is (u0, u1, v0, v1, t0, t1).  For each v node the u-interval
    is [u0, u1] clipped to the chord of the unit disk and mapped to
    omega = arcsin(u / rho); t parametrizes omega linearly, so the tile is a
    rectangle in (v, t) space.  v itself is parametrized by the smoothstep
    map v = v0 + (v1-v0)*(3s^2 - 2s^3), whose vanishing endpoint derivative
    turns the sqrt-type behavior of the chord width at circle tangencies
    into an analytic integrand.

    Returns the nodes as homogeneous direction-cosine unit vectors
    (u, v, sqrt(1 - u^2 - v^2), 1), shape (4, T, m), and the weights with
    the Jacobian, shape (T, m): the first _N_COARSE^2 of the m nodes of a
    tile belong to the coarse rule, the rest to the fine rule.  Rows of v
    outside the disk get zero weight.
    """
    orders = (_N_COARSE, _N_FINE)
    size = sum(n * n for n in orders)
    points = np.empty((4, len(tiles), size))
    points[3] = 1.0
    weights = np.empty((len(tiles), size))
    u0, u1, v0, v1, t0, t1 = (tiles[:, k, None] for k in range(6))
    dv = v1 - v0
    stop = 0
    for n in orders:
        x, w = _leggauss(n)
        s = 0.5 + 0.5 * x
        v = v0 + dv * (3.0 - 2.0 * s) * s * s
        vjac = 6.0 * dv * s * (1.0 - s)
        rho = np.sqrt(np.maximum(0.0, 1.0 - v * v))
        lo = np.maximum(u0, -rho)
        hi = np.minimum(u1, rho)
        valid = (hi - lo) > 0.0
        # arcsin arguments clipped against roundoff at the circle boundary
        with np.errstate(divide="ignore", invalid="ignore"):
            om0 = np.arcsin(np.clip(np.where(valid, lo / rho, 0.0), -1.0, 1.0))
            om1 = np.arcsin(np.clip(np.where(valid, hi / rho, 0.0), -1.0, 1.0))
        t = 0.5 * (t1 + t0) + 0.5 * (t1 - t0) * x
        omega = om0[:, :, None] + (om1 - om0)[:, :, None] * t[:, None, :]
        jac = 0.5 * vjac * (om1 - om0) * 0.5 * (t1 - t0)
        nodes = slice(stop, stop + n * n)
        stop += n * n
        rho = rho[:, :, None]
        points[0, :, nodes] = (rho * np.sin(omega)).reshape(len(tiles), -1)
        points[1, :, nodes] = np.repeat(v, n, axis=1)
        # sqrt(1 - u^2 - v^2), stable
        points[2, :, nodes] = (rho * np.cos(omega)).reshape(len(tiles), -1)
        weights[:, nodes] = ((w * jac)[:, :, None] * w).reshape(len(tiles), -1)
    return points, weights
