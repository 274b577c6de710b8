"""Plane-wave harmonic lattice and spectral variance integrals.

For a planar aperture of size (L_x, L_y) wavelengths, the propagating Fourier
harmonics are the integer pairs inside the lattice ellipse
(ix/L_x)^2 + (iy/L_y)^2 <= 1.  Each harmonic owns a rectangular cell of the
direction-cosine plane of width 1/L per axis, anchored at the harmonic's own
direction-cosine point and extending away from broadside (the zero index owns
the symmetric strip [-1/L, 1/L]).  These cells tile the unit disk exactly
once and every point of the disk belongs to a cell whose harmonic lies inside
the ellipse, so the cell integrals of any spectrum conserve its full
upper-hemisphere measure (2*pi for the isotropic spectrum).

The per-cell integral of A^2(theta, phi) * sin(theta) dtheta dphi is computed
in direction cosines, where the Jacobian contributes 1/sqrt(1 - u^2 - v^2).
The substitution u = rho * sin(omega) with rho = sqrt(1 - v^2) absorbs the
disk-edge singularity, leaving a smooth integrand handled by adaptive
tensor Gauss-Legendre quadrature: a tile is accepted when its 12- and
24-point estimates agree within 1e-6 relative + 1e-15 absolute, and is
otherwise bisected four ways, up to depth _MAX_DEPTH.

The rule is evaluated level by level for all spectra of one aperture: all
pending tiles of all cells take one bisection step together, a few tiles per
batch, and each spectrum's accepted tiles' estimates are summed per cell
with np.bincount.  A batch's nodes, weights and caps depend only on its
tiles, so they are computed once for every spectrum that needs them; each
spectrum meets its tiles in the order a build of it alone would, so its
sums are the same.  Nodes are direction-cosine unit vectors, so the VMF
exponents are plain dot products: a spectrum is evaluated on each tile of
a batch with one matrix product and one exp over the clusters that survive
there, so a tile's temporaries hold its own clusters alone.  A VMF term
is skipped on a tile when it is below exp(-40) of its largest value on the
upper hemisphere at every node, which a spherical cap around the tile's
nodes shows: if the angle from the cap's centre to the term's mean exceeds
the cap's radius by d, no node's dot product with the mean exceeds cos(d).
The largest value is the term's peak when its mean is on or above the
horizon, and its value at the horizon otherwise, so a cluster behind the
aperture keeps the tail that reaches the hemisphere.

A spectrum whose largest value on the upper hemisphere is below the
smallest normal float counts as 0 there: its cell integrals are 0 without
a quadrature, which could keep at most a subnormal or zero total.

An aperture with one cell in the unit disk (1 wavelength) needs no
quadrature for a variance table, which normalizes that cell's integral
away: ``indicator_lattice`` checks in closed form that the spectrum is
not 0 on the hemisphere and puts 1 on that cell.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateSpectrum,
    IndexOutsideEllipse,
    NonPositiveInput,
    QuadratureNotConverged,
)
from .geometry import ArrayGeometry
from .spectrum import AngularPowerSpectrum

__all__ = [
    "HarmonicIndex",
    "SpectralLattice",
    "VarianceTable",
    "enumerate_lattice",
    "harmonic_angles",
    "build_lattice",
    "build_lattices",
    "build_variance_table",
    "indicator_lattice",
    "harmonic_vector",
]

_ELLIPSE_TOL = 1e-12

# Quadrature controls: per-tile relative tolerance, Gauss orders of the
# coarse/fine estimates, and the bisection depth cap.
_TILE_RTOL = 1e-6
_TILE_ATOL = 1e-15
_N_COARSE = 12
_N_FINE = 24
_MAX_DEPTH = 14
# A VMF term is skipped on a tile where it stays below exp(-40) of its largest
# value on the upper hemisphere at every node; tiles are evaluated this many
# at a time.
_CULL_EXPONENT = 40.0
_BATCH_TILES = 4


class HarmonicIndex(NamedTuple):
    ix: int
    iy: int


def _in_ellipse(ix: int, iy: int, aperture_x: float, aperture_y: float) -> bool:
    return (ix / aperture_x) ** 2 + (iy / aperture_y) ** 2 <= 1.0 + _ELLIPSE_TOL


def _require_in_ellipse(index, aperture_x, aperture_y):
    ix, iy = index
    if not _in_ellipse(ix, iy, aperture_x, aperture_y):
        raise IndexOutsideEllipse(
            f"harmonic ({ix}, {iy}) outside the lattice ellipse of aperture "
            f"({aperture_x}, {aperture_y})"
        )


def enumerate_lattice(aperture_x: float, aperture_y: float) -> list[HarmonicIndex]:
    """All harmonics inside the lattice ellipse, sorted lexicographically."""
    if aperture_x <= 0 or aperture_y <= 0:
        raise NonPositiveInput("apertures must be strictly positive")
    kx = int(math.floor(aperture_x + _ELLIPSE_TOL))
    out = []
    for ix in range(-kx, kx + 1):
        for iy in range(-int(math.floor(aperture_y)) - 1, int(math.floor(aperture_y)) + 2):
            if _in_ellipse(ix, iy, aperture_x, aperture_y):
                out.append(HarmonicIndex(ix, iy))
    return sorted(out)


def harmonic_angles(
    index, aperture_x: float, aperture_y: float
) -> tuple[float, float]:
    """(elevation, azimuth) in radians of a harmonic's plane-wave direction.

    Elevation is arccos of the broadside direction cosine; azimuth is the
    four-quadrant angle of the (u, v) pair, defined as 0 at the broadside
    harmonic (0, 0).
    """
    _require_in_ellipse(index, aperture_x, aperture_y)
    ix, iy = index
    u = ix / aperture_x
    v = iy / aperture_y
    w2 = max(0.0, 1.0 - u * u - v * v)
    elevation = math.acos(math.sqrt(w2))
    azimuth = math.atan2(v, u) if (ix, iy) != (0, 0) else 0.0
    return elevation, azimuth


def _cell_interval(k: int, step: float) -> tuple[float, float]:
    """Direction-cosine interval owned by 1-D harmonic k (width 1/L away
    from broadside; the zero harmonic owns the symmetric double strip)."""
    if k > 0:
        return k * step, (k + 1) * step
    if k < 0:
        return (k - 1) * step, k * step
    return -step, step


@lru_cache(maxsize=32)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _cell_strips(index, aperture_x, aperture_y) -> list[tuple]:
    """(u0, u1, v0, v1) strips covering a harmonic's cell inside the disk.

    The cell is clipped to [-1, 1]^2 and split in v at the ordinates where
    the circle crosses its vertical edges; between the breakpoints the
    integrand is smooth.  A cell entirely outside the disk has no strips.
    """
    _require_in_ellipse(index, aperture_x, aperture_y)
    ix, iy = index
    u0, u1 = _cell_interval(ix, 1.0 / aperture_x)
    v0, v1 = _cell_interval(iy, 1.0 / aperture_y)
    u0, u1 = max(u0, -1.0), min(u1, 1.0)
    v0, v1 = max(v0, -1.0), min(v1, 1.0)
    if u0 >= u1 or v0 >= v1:
        return []
    # Cell entirely outside the disk: nearest corner at or beyond radius 1.
    near_u = min(abs(u0), abs(u1)) if u0 * u1 > 0 else 0.0
    near_v = min(abs(v0), abs(v1)) if v0 * v1 > 0 else 0.0
    if near_u * near_u + near_v * near_v >= 1.0:
        return []
    breakpoints = {v0, v1}
    for edge in (abs(u0), abs(u1)):
        if edge < 1.0:
            vb = math.sqrt(1.0 - edge * edge)
            for cand in (vb, -vb):
                if v0 < cand < v1:
                    breakpoints.add(cand)
    cuts = sorted(breakpoints)
    return [(u0, u1, a, b) for a, b in zip(cuts[:-1], cuts[1:])]


def _disk_cells(aperture_x: float, aperture_y: float) -> np.ndarray:
    """1.0 for each harmonic of enumerate_lattice whose cell meets the unit
    disk, else 0.0."""
    return np.array([bool(_cell_strips(index, aperture_x, aperture_y))
                     for index in enumerate_lattice(aperture_x, aperture_y)],
                    dtype=float)


def _tile_nodes(tiles: np.ndarray):
    """Nodes and weights of the coarse and the fine tensor Gauss-Legendre
    rule on each tile.

    A tile row is (u0, u1, v0, v1, t0, t1).  For each v node the u-interval
    is [u0, u1] clipped to the chord of the unit disk and mapped to
    omega = arcsin(u / rho); t parametrizes omega linearly, so the tile is a
    rectangle in (v, t) space.  v itself is parametrized by the smoothstep
    map v = v0 + (v1-v0)*(3s^2 - 2s^3), whose vanishing endpoint derivative
    turns the sqrt-type behavior of the chord width at circle tangencies
    into an analytic integrand.

    Returns the nodes as direction-cosine unit vectors
    (u, v, sqrt(1 - u^2 - v^2)), shape (3, T, m), and the weights including
    the Jacobian, shape (T, m): the first _N_COARSE^2 of the m nodes of a
    tile belong to the coarse rule, the rest to the fine rule.  Rows of v
    outside the disk get zero weight.
    """
    orders = (_N_COARSE, _N_FINE)
    size = sum(n * n for n in orders)
    points = np.empty((3, len(tiles), size))
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


def _cap(points: np.ndarray):
    """Spherical cap around each tile's nodes (3, T, m): centre (3, T), the
    normalized mean of the nodes, and radius (T,), the largest angle to a
    node.  Angles come from chords, which stay accurate for small tiles."""
    centre = points.sum(axis=2)
    centre /= np.sqrt((centre * centre).sum(axis=0))
    offset = points - centre[:, :, None]
    chord = np.sqrt((offset * offset).sum(axis=0).max(axis=1))
    return centre, 2.0 * np.arcsin(np.minimum(1.0, 0.5 * chord))


def _cap_bound(cap, means: np.ndarray) -> np.ndarray:
    """Upper bound on the dot product of any node of a tile with each mean:
    a node in the tile's _cap is at least (angle from the cap's centre to
    the mean) - radius away from a mean.  Shape (T, K)."""
    centre, radius = cap
    to_mean = np.sqrt(((centre.T[:, None, :] - means) ** 2).sum(axis=2))
    distance = 2.0 * np.arcsin(np.minimum(1.0, 0.5 * to_mean))
    return np.cos(np.maximum(0.0, distance - radius[:, None]))


def _hemisphere_peaks(means: np.ndarray) -> np.ndarray:
    """Largest dot product of each mean with an upper-hemisphere direction:
    1 for a mean on or above the horizon, else the sine of its elevation,
    reached at the horizon."""
    return np.where(means[:, 2] >= 0.0, 1.0, np.hypot(means[:, 0], means[:, 1]))


def _hemisphere_maximum(spectrum: AngularPowerSpectrum) -> float:
    """constant + max_k coef_k * exp(alpha_k * (peak_k - 1)), with the terms'
    _hemisphere_peaks: the largest value on the upper hemisphere of the
    spectrum's constant plus any one term.

    A value below the smallest normal float is flushed to 0.  No quadrature
    node can exceed it, so the cell integrals would be subnormal or 0, and
    with them whether an end keeps any mass; _cell_integrals gives such a
    spectrum 0 everywhere.  A rotation about broadside keeps every peak,
    and so this value."""
    means, alphas, coefs, constant = spectrum.mixture_arrays
    terms = coefs * np.exp(alphas * (_hemisphere_peaks(means) - 1.0))
    largest = constant + terms.max(initial=0.0)
    return largest if largest >= sys.float_info.min else 0.0


def _node_values(mixture, peaks, points: np.ndarray, cap, pending) -> np.ndarray:
    """Spectrum at the nodes (3, T, m) of T tiles, shape (T, m).

    A VMF term is skipped on a tile that is not ``pending`` (T,), or where
    the cap bound puts alpha * (dot - peak) below -_CULL_EXPONENT at every
    node, ``peaks`` being the terms' _hemisphere_peaks.

    Each tile's surviving terms are evaluated at its nodes with one matrix
    product and one exp, and added onto the constant in term order."""
    means, alphas, coefs, constant = mixture
    values = np.full(points.shape[1:], constant)
    active = alphas * (_cap_bound(cap, means) - peaks) >= -_CULL_EXPONENT
    active &= pending[:, None]
    for tile in np.flatnonzero(active.any(axis=1)):
        terms = np.flatnonzero(active[tile])
        exponents = means[terms] @ points[:, tile]
        exponents -= 1.0
        exponents *= alphas[terms, None]
        np.exp(exponents, out=exponents)
        exponents *= coefs[terms, None]
        exponents.sum(axis=0, initial=constant, out=values[tile])
    return values


def _cell_integrals(spectra, cells) -> np.ndarray:
    """Adaptive cell integrals of A^2 / sqrt(1 - u^2 - v^2), shape
    (len(spectra), len(cells)); ``cells`` lists each cell's strips.

    Every strip starts as one tile over t in [0, 1], pending for every
    spectrum whose _hemisphere_maximum is not 0.  A level gives each tile a
    coarse and a fine estimate per spectrum it is pending for, _BATCH_TILES
    tiles at a time with nodes and caps shared by all spectra.  Where the two agree, the fine estimate goes
    to that spectrum's cell; a tile some spectrum rejects is bisected in v
    and t into four tiles of the next level, pending for those spectra.
    """
    owner = np.array(
        [i for i, strips in enumerate(cells) for _ in strips], dtype=np.intp
    )
    tiles = np.array(
        [strip + (0.0, 1.0) for strips in cells for strip in strips], dtype=float
    ).reshape(-1, 6)
    pending = np.ones((len(spectra), len(tiles)), dtype=bool)
    pending[[_hemisphere_maximum(spectrum) == 0.0 for spectrum in spectra]] = False
    totals = np.zeros((len(spectra), len(cells)))
    mixtures = [spectrum.mixture_arrays for spectrum in spectra]
    peaks = [_hemisphere_peaks(mixture[0]) for mixture in mixtures]
    n_coarse = _N_COARSE * _N_COARSE
    depth = 0
    while pending.any():
        coarse, fine = np.zeros((2, *pending.shape))
        for start in range(0, len(tiles), _BATCH_TILES):
            batch = slice(start, start + _BATCH_TILES)
            points, weights = _tile_nodes(tiles[batch])
            cap = _cap(points)
            need = pending[:, batch]
            for u in np.flatnonzero(need.any(axis=1)):
                weighted = _node_values(mixtures[u], peaks[u], points, cap, need[u])
                weighted *= weights
                coarse[u, batch] = weighted[:, :n_coarse].sum(axis=1)
                fine[u, batch] = weighted[:, n_coarse:].sum(axis=1)
        done = np.abs(fine - coarse) <= _TILE_RTOL * np.abs(fine) + _TILE_ATOL
        done &= pending
        for u, accepted in enumerate(done):
            totals[u] += np.bincount(
                owner[accepted], weights=fine[u, accepted], minlength=len(cells)
            )
        refine = pending & ~done
        if depth >= _MAX_DEPTH and refine.any():
            raise QuadratureNotConverged(
                f"cell quadrature not converged after depth {depth}"
            )
        split = refine.any(axis=0)
        tiles, owner = _quarter(tiles[split]), np.repeat(owner[split], 4)
        pending = np.repeat(refine[:, split], 4, axis=1)
        depth += 1
    return np.maximum(totals, 0.0)


def _quarter(tiles: np.ndarray) -> np.ndarray:
    """Bisect every tile in v and t; the four children of a tile are
    consecutive rows."""
    u0, u1, v0, v1, t0, t1 = tiles.T
    vm = 0.5 * (v0 + v1)
    tm = 0.5 * (t0 + t1)
    children = [(v0, vm, t0, tm), (v0, vm, tm, t1), (vm, v1, t0, tm), (vm, v1, tm, t1)]
    return np.stack(
        [np.stack((u0, u1, *child), axis=1) for child in children], axis=1
    ).reshape(-1, 6)


@dataclass(frozen=True, eq=False)
class SpectralLattice:
    """Harmonic indices of one aperture with their spectral cell integrals."""

    aperture_x: float
    aperture_y: float
    indices: tuple[HarmonicIndex, ...]
    marginal_integrals: np.ndarray

    @property
    def cardinality(self) -> int:
        return len(self.indices)

    @property
    def total_integral(self) -> float:
        return float(self.marginal_integrals.sum())


def build_lattice(
    aperture_x: float, aperture_y: float, spectrum: AngularPowerSpectrum
) -> SpectralLattice:
    """Enumerate the lattice and compute every cell integral."""
    return build_lattices(aperture_x, aperture_y, [spectrum])[0]


def build_lattices(
    aperture_x: float, aperture_y: float, spectra
) -> list[SpectralLattice]:
    """``build_lattice`` of each spectrum, in one quadrature pass that
    computes each tile's nodes once for all spectra that need it."""
    indices = tuple(enumerate_lattice(aperture_x, aperture_y))
    strips = [_cell_strips(index, aperture_x, aperture_y) for index in indices]
    integrals = _cell_integrals(spectra, strips)
    return [SpectralLattice(aperture_x, aperture_y, indices, row) for row in integrals]


def indicator_lattice(
    aperture_x: float, aperture_y: float, spectrum: AngularPowerSpectrum
) -> SpectralLattice:
    """The lattice of an aperture with one cell in the unit disk, as the
    variance table sees it: 1 on that cell, 0 on the others.

    The table normalizes each end by its total, and all of a spectrum's
    hemisphere mass falls in that one cell, so the quadrature's value there
    reaches the table only through whether it is positive, which
    _hemisphere_maximum decides without one: DegenerateSpectrum where it is
    0."""
    indices = tuple(enumerate_lattice(aperture_x, aperture_y))
    cells = _disk_cells(aperture_x, aperture_y)
    if cells.sum() != 1.0:
        raise ValueError(
            f"aperture ({aperture_x}, {aperture_y}) has {cells.sum():g} cells "
            f"in the unit disk, not one"
        )
    if _hemisphere_maximum(spectrum) == 0.0:
        raise DegenerateSpectrum("spectrum vanishes on the visible hemisphere")
    return SpectralLattice(aperture_x, aperture_y, indices, cells)


@dataclass(frozen=True, eq=False)
class VarianceTable:
    """Separable per-harmonic-pair variances, normalized to unit total."""

    bs_lattice: SpectralLattice
    ue_lattice: SpectralLattice
    normalized: np.ndarray  # (n_ue, n_bs), read-only

    def variances(self) -> np.ndarray:
        """Variance matrix, shape (n_ue, n_bs), summing to 1."""
        return self.normalized


def build_variance_table(
    bs_lattice: SpectralLattice, ue_lattice: SpectralLattice
) -> VarianceTable:
    """Combine the two link-end lattices into a normalized variance table.

    Each end is scaled by the reciprocal of its own total, not of a product
    of totals that can overflow.  A total below the smallest normal float is
    DegenerateSpectrum unless one cell holds it all: that share is exactly 1.
    """
    ends = []
    for lattice in (ue_lattice, bs_lattice):
        cells, total = lattice.marginal_integrals, lattice.total_integral
        if total >= sys.float_info.min:
            ends.append(cells * (1.0 / total))
        elif total > 0.0 and np.count_nonzero(cells) == 1:
            ends.append((cells != 0.0).astype(float))
        else:
            raise DegenerateSpectrum(
                f"all marginal integrals vanished at one link end (total {total:.3g})"
            )
    normalized = np.outer(*ends)
    normalized.flags.writeable = False
    return VarianceTable(bs_lattice, ue_lattice, normalized)


def harmonic_vector(index, geometry: ArrayGeometry, sign: int = 1) -> np.ndarray:
    """Sampled plane-wave basis vector of a harmonic on an array.

    Entry p is exp(sign * j * 2*pi * (ix*x_p/L_x + iy*y_p/L_y)) / sqrt(N);
    sign is -1 at the transmit end and +1 at the receive end.  The z phase
    term vanishes because the array lies in its local z=0 plane.
    """
    lx = geometry.aperture_x
    ly = geometry.aperture_y
    _require_in_ellipse(index, lx, ly)
    ix, iy = index
    phase = (2.0 * math.pi * sign) * (
        ix * geometry.elements[:, 0] / lx + iy * geometry.elements[:, 1] / ly
    )
    return np.exp(1j * phase) / math.sqrt(geometry.count)
