"""The level-batched cell quadrature, four tiles per batch and one cull per
spectrum and batch.

``holomimo.lattice._cell_integrals`` computes a chunk's nodes, caps and VMF
cull once for every spectrum and evaluates the chunk tile by tile, the
surviving terms of all spectra pending on a tile stacked into one product;
this form, which computes each batch's cull and node values once per
spectrum that needs any of its tiles, is the tests' oracle for it.  Both
must give bitwise the same cell integrals.  Its cull takes the cosine of
each (tile, term) gap, ``cap_bound``, which the pass's ``_cull_reach``
replaces with one angle per term.
"""

import numpy as np

import holomimo.lattice as lat

BATCH_TILES = 4


def cap_bound(cap, means: np.ndarray) -> np.ndarray:
    """Upper bound on the dot product of any node of a tile with each mean:
    the cosine of ``lat._cap_gap``.  Shape (T, K)."""
    return np.cos(lat._cap_gap(cap, means))


def node_values(mixture, peaks, points: np.ndarray, cap, pending) -> np.ndarray:
    """Spectrum at the nodes (4, T, m) of T tiles, shape (T, m).

    A VMF term is skipped on a tile that is not ``pending`` (T,), or where
    the cap bound puts alpha * (dot - peak) below -_CULL_EXPONENT at every
    node, ``peaks`` being the terms' _hemisphere_peaks.

    Each term coef * exp(alpha * (mean . node - 1)) is the exp of its
    exponent row (alpha * mean, ln(coef) - alpha) times the node's
    homogeneous coordinates (node, 1).  Each tile's surviving terms are
    evaluated at its nodes with one matrix product of their rows and one
    exp, and added onto the constant in term order."""
    means, alphas, coefs, constant = mixture
    rows = np.column_stack((alphas[:, None] * means, np.log(coefs) - alphas))
    values = np.full(points.shape[1:], constant)
    active = alphas * (cap_bound(cap, means) - peaks) >= -lat._CULL_EXPONENT
    active &= pending[:, None]
    for tile in np.flatnonzero(active.any(axis=1)):
        exponents = rows[active[tile]] @ points[:, tile]
        np.exp(exponents, out=exponents)
        exponents.sum(axis=0, initial=constant, out=values[tile])
    return values


def cell_integrals(spectra, cells) -> np.ndarray:
    """Adaptive cell integrals of A^2 / sqrt(1 - u^2 - v^2), shape
    (len(spectra), len(cells)); ``cells`` lists each cell's strips.

    Every strip starts as one tile over t in [0, 1], pending for every
    spectrum whose _hemisphere_maximum is not 0.  A level gives each tile a
    coarse and a fine estimate per spectrum it is pending for, BATCH_TILES
    tiles at a time with nodes and caps shared by all spectra.  Where the
    two agree and none of the spectrum's terms has a narrow peak in the
    tile's cap, the fine estimate goes to that spectrum's cell; a tile some
    spectrum rejects or holds is bisected in v and t into four tiles of the
    next level, pending for those spectra.
    """
    owner = np.array(
        [i for i, strips in enumerate(cells) for _ in strips], dtype=np.intp
    )
    tiles = np.array(
        [strip + (0.0, 1.0) for strips in cells for strip in strips], dtype=float
    ).reshape(-1, 6)
    pending = np.ones((len(spectra), len(tiles)), dtype=bool)
    pending[[lat._hemisphere_maximum(spectrum) == 0.0 for spectrum in spectra]] = False
    totals = np.zeros((len(spectra), len(cells)))
    mixtures = [spectrum.mixture_arrays for spectrum in spectra]
    peaks = [lat._hemisphere_peaks(mixture[0]) for mixture in mixtures]
    peak_points = [lat._peak_points(mixture[0]) for mixture in mixtures]
    n_coarse = lat._N_COARSE * lat._N_COARSE
    workspace = lat._workspace(BATCH_TILES)
    depth = 0
    while pending.any():
        coarse, fine = np.zeros((2, *pending.shape))
        held = np.zeros_like(pending)
        for start in range(0, len(tiles), BATCH_TILES):
            batch = slice(start, start + BATCH_TILES)
            points, weights = lat._tile_nodes(tiles[batch], workspace)
            cap = lat._cap(points, workspace)
            need = pending[:, batch]
            for u in np.flatnonzero(need.any(axis=1)):
                weighted = node_values(mixtures[u], peaks[u], points, cap, need[u])
                weighted *= weights
                coarse[u, batch] = weighted[:, :n_coarse].sum(axis=1)
                fine[u, batch] = weighted[:, n_coarse:].sum(axis=1)
                narrow = lat._holds_narrow_peak(cap, peak_points[u], mixtures[u][1])
                held[u, batch] = narrow.any(axis=1) & need[u]
        done = np.abs(fine - coarse) <= lat._TILE_RTOL * np.abs(fine) + lat._TILE_ATOL
        done &= pending & ~held
        for u, accepted in enumerate(done):
            totals[u] += np.bincount(
                owner[accepted], weights=fine[u, accepted], minlength=len(cells)
            )
        refine = pending & ~done
        if depth >= lat._MAX_DEPTH and refine.any():
            raise lat.QuadratureNotConverged(
                f"cell quadrature not converged after depth {depth}"
            )
        split = refine.any(axis=0)
        tiles, owner = lat._quarter(tiles[split]), np.repeat(owner[split], 4)
        pending = np.repeat(refine[:, split], 4, axis=1)
        depth += 1
    return np.maximum(totals, 0.0)
