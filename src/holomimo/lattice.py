"""Plane-wave harmonic lattice and spectral variance integrals.

For a planar aperture of size (L_x, L_y) wavelengths, the propagating Fourier
harmonics are the integer pairs inside the lattice ellipse
(ix/L_x)^2 + (iy/L_y)^2 <= 1.  Each harmonic owns a rectangular cell of the
direction-cosine plane of width 1/L per axis, anchored at the harmonic's own
direction-cosine point and extending away from broadside (the zero index owns
the symmetric strip [-1/L, 1/L]).  These cells tile the unit disk exactly
once and every point of the disk belongs to a cell whose harmonic lies inside
the ellipse, so the cell integrals of any spectrum conserve its full
upper-hemisphere measure (2*pi for the isotropic spectrum).  What depends
on the aperture alone (the harmonics, their cells' strips inside the disk,
which cells meet it, and the harmonics' angles) is computed once per
aperture by ``harmonic_geometry`` and shared read-only by every lattice,
plan and spacing.

The per-cell integral of A^2(theta, phi) * sin(theta) dtheta dphi is computed
in direction cosines, where the Jacobian contributes 1/sqrt(1 - u^2 - v^2).
The substitution u = rho * sin(omega) with rho = sqrt(1 - v^2) absorbs the
disk-edge singularity, leaving a smooth integrand handled by adaptive
tensor Gauss-Legendre quadrature: a tile is accepted when its 12- and
24-point estimates agree within 1e-6 relative + 1e-15 absolute, and is
otherwise bisected four ways, up to depth _MAX_DEPTH.

The rule is evaluated level by level for all spectra of one aperture: all
pending tiles of all cells take one bisection step together, a chunk of
tiles at a time, and each spectrum's accepted tiles' estimates are summed
per cell with np.bincount.  A chunk's nodes, weights, caps and the cull of
the stacked VMF terms of its spectra depend only on its tiles, so they are
computed once, into one workspace that the pass makes for _CHUNK_TILES
tiles when it starts and frees when it ends (a fresh ~1 MB per chunk
cost page faults).  A term coef * exp(alpha * (mean . p - 1)) is stacked once
per pass as the exponent row (alpha * mean, ln(coef) - alpha) and a node p
as (p, 1), so a value is one 4-column product and one exp; the exponent
then carries a few ulps of alpha of rounding, the same order as the ulp of
1 of the textbook form's dot product that alpha multiplies.  The chunk is
evaluated tile by tile: the rows that survive on a tile, of every spectrum
still pending there, take one product and one exp per block of at most
_BLOCK_ROWS rows, and each spectrum's values are added onto its constant
in term order.  Two rules keep every lattice bitwise the one a build of
its spectrum alone gives: a spectrum with one surviving term on a tile
takes a one-row product of its own (the BLAS computes it with another
kernel, whose row can differ in the last bits from the same row of a
larger product, while the rows of products of two or more rows agree), and
values are summed with NumPy reductions, never with a matrix product.

A VMF term is skipped on a tile when it is below exp(-40) of its largest
value on the upper hemisphere at every node, which a spherical cap around
the tile's nodes shows: if the angle from the cap's centre to the term's
mean exceeds the cap's radius by d, no node's dot product with the mean
exceeds cos(d).  The largest value is the term's peak when its mean is on
or above the horizon, and its value at the horizon otherwise, so a cluster
behind the aperture keeps the tail that reaches the hemisphere.  Rather
than a cosine per (tile, term) pair, d is compared with the term's reach
arccos(peak - 40/alpha), one per term and pass.

A cluster much narrower than a tile can fall between all nodes of both
rules, which then agree on ~0 and accept the tile.  So a tile is not
accepted for a spectrum while the tile's cap holds the peak point of one of
its terms (the mean, or for a mean behind the aperture the nearest horizon
point) and is wider than _PEAK_WIDTHS term widths 1/sqrt(alpha); it is
bisected like a rejected tile until its nodes reach the peak.

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
    "enumerate_lattice",
    "harmonic_angles",
    "build_lattice",
    "build_lattices",
    "disk_cells",
    "HarmonicGeometry",
    "harmonic_geometry",
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
# value on the upper hemisphere at every node.
_CULL_EXPONENT = 40.0
# A tile whose cap holds a VMF term's peak point is refined while its radius
# exceeds this many of the term's widths 1/sqrt(alpha).  The fine rule's
# largest node gap is under 0.2 of the radius, so a tile let go at 24 widths
# has a node within ~3 widths of the peak, where the term is above ~e^-5 of
# it.  The 10- and 20-degree clusters of the CDL presets are never held.
_PEAK_WIDTHS = 24.0
# Tiles of a level whose nodes, caps and cull are computed at once; no value
# depends on it.
_CHUNK_TILES = 32
# Rows of one node-value matrix product; no value depends on it.  Its
# blocks then fill the pass's scratch (_Workspace), which holds a chunk's
# offsets from the cap centres (README, "Performance notes", gives peak RSS
# at other sizes).
_BLOCK_ROWS = 3 * _CHUNK_TILES


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
    return list(harmonic_geometry(aperture_x, aperture_y).indices)


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
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    The nodes are the eigenvalues of the Legendre Jacobi matrix
    (Golub-Welsch), refined by one Newton step on P_n, and the weights are
    2 / ((1 - x^2) P_n'(x)^2), both from the three-term recurrence; the rule
    is then symmetrized and scaled to total 2 as ``numpy.polynomial``'s
    ``leggauss`` does, which this avoids importing."""
    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))

    def legendre(x):  # (P_n(x), P_n'(x))
        p, previous = x, np.ones_like(x)
        for j in range(1, n):
            p, previous = ((2 * j + 1) * x * p - j * previous) / (j + 1), p
        return p, n * (x * p - previous) / (x * x - 1.0)

    p, dp = legendre(x)
    x = x - p / dp
    dp = legendre(x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    w = 0.5 * (w + w[::-1])
    return 0.5 * (x - x[::-1]), w * (2.0 / w.sum())


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


def disk_cells(aperture_x: float, aperture_y: float) -> np.ndarray:
    """1.0 for each harmonic of enumerate_lattice whose cell meets the unit
    disk, else 0.0."""
    return harmonic_geometry(aperture_x, aperture_y).disk.copy()


@dataclass(frozen=True, eq=False)
class HarmonicGeometry:
    """The harmonics of one aperture and what depends on them alone: a
    read-only record that ``harmonic_geometry`` makes once per aperture and
    every spectrum, array and spacing then shares.

    ``indices`` are enumerate_lattice's; ``strips`` each cell's
    _cell_strips; ``disk`` is disk_cells and ``support`` the indices of its
    nonzero entries; ``ix`` and ``iy`` are the indices as floats, and
    ``elevation`` and ``azimuth`` the harmonic_angles, one entry per
    harmonic."""

    indices: tuple[HarmonicIndex, ...]
    strips: tuple[tuple[tuple[float, float, float, float], ...], ...]
    disk: np.ndarray
    support: np.ndarray
    ix: np.ndarray
    iy: np.ndarray
    elevation: np.ndarray
    azimuth: np.ndarray


def _read_only(values, dtype=float) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


@lru_cache(maxsize=16)
def harmonic_geometry(aperture_x: float, aperture_y: float) -> HarmonicGeometry:
    """The HarmonicGeometry of an aperture, made on first use."""
    if aperture_x <= 0 or aperture_y <= 0:
        raise NonPositiveInput("apertures must be strictly positive")
    kx = int(math.floor(aperture_x + _ELLIPSE_TOL))
    ky = int(math.floor(aperture_y))
    indices = tuple(sorted(
        HarmonicIndex(ix, iy)
        for ix in range(-kx, kx + 1)
        for iy in range(-ky - 1, ky + 2)
        if _in_ellipse(ix, iy, aperture_x, aperture_y)
    ))
    strips = tuple(tuple(_cell_strips(index, aperture_x, aperture_y)) for index in indices)
    disk = _read_only([bool(cell) for cell in strips])
    angles = [harmonic_angles(index, aperture_x, aperture_y) for index in indices]
    return HarmonicGeometry(
        indices=indices,
        strips=strips,
        disk=disk,
        support=_read_only(np.flatnonzero(disk), np.intp),
        ix=_read_only([index.ix for index in indices]),
        iy=_read_only([index.iy for index in indices]),
        elevation=_read_only([angle[0] for angle in angles]),
        azimuth=_read_only([angle[1] for angle in angles]),
    )


class _Workspace(NamedTuple):
    """Buffers of one quadrature pass for chunks of up to ``tiles`` tiles,
    made when the pass starts and freed when it ends: the nodes (4, tiles,
    m), whose homogeneous coordinate stays 1, the weights (tiles, m) and a
    scratch of 3 * tiles rows of m values.  _tile_nodes keeps its angles in
    the scratch, _cap then its offsets, and _pair_values then its product
    blocks of _BLOCK_ROWS rows."""

    points: np.ndarray
    weights: np.ndarray
    scratch: np.ndarray


def _workspace(tiles: int) -> _Workspace:
    size = _N_COARSE * _N_COARSE + _N_FINE * _N_FINE
    points = np.empty((4, tiles, size))
    points[3] = 1.0
    return _Workspace(points, np.empty((tiles, size)), np.empty((3 * tiles, size)))


def _tile_nodes(tiles: np.ndarray, workspace: _Workspace | None = None):
    """Nodes and weights of the coarse and the fine tensor Gauss-Legendre
    rule on each tile, written into ``workspace`` (a new one by default).

    A tile row is (u0, u1, v0, v1, t0, t1).  For each v node the u-interval
    is [u0, u1] clipped to the chord of the unit disk and mapped to
    omega = arcsin(u / rho); t parametrizes omega linearly, so the tile is a
    rectangle in (v, t) space.  v itself is parametrized by the smoothstep
    map v = v0 + (v1-v0)*(3s^2 - 2s^3), whose vanishing endpoint derivative
    turns the sqrt-type behavior of the chord width at circle tangencies
    into an analytic integrand.

    Returns the nodes as homogeneous direction-cosine unit vectors
    (u, v, sqrt(1 - u^2 - v^2), 1), shape (4, T, m), and the weights with
    the Jacobian, shape (T, m), as views of the workspace: the first
    _N_COARSE^2 of the m nodes of a tile belong to the coarse rule, the rest
    to the fine rule.  Rows of v outside the disk get zero weight.
    """
    count = len(tiles)
    if workspace is None:
        workspace = _workspace(count)
    points, weights = workspace.points[:, :count], workspace.weights[:count]
    u0, u1, v0, v1, t0, t1 = (tiles[:, k, None] for k in range(6))
    dv = v1 - v0
    stop = 0
    for n in (_N_COARSE, _N_FINE):
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
        jac = 0.5 * vjac * (om1 - om0) * 0.5 * (t1 - t0)
        # (count, n, n) views: of the scratch, and of this rule's nodes.
        omega, trig = workspace.scratch.reshape(-1)[:2 * count * n * n].reshape(
            2, count, n, n)
        nodes = [array[:, stop:stop + n * n].reshape(count, n, n)
                 for array in (*points[:3], weights)]
        stop += n * n
        np.multiply((om1 - om0)[:, :, None], t[:, None, :], out=omega)
        omega += om0[:, :, None]
        rho = rho[:, :, None]
        np.multiply(rho, np.sin(omega, out=trig), out=nodes[0])
        nodes[1][...] = v[:, :, None]
        # sqrt(1 - u^2 - v^2), stable
        np.multiply(rho, np.cos(omega, out=trig), out=nodes[2])
        np.multiply((w * jac)[:, :, None], w, out=nodes[3])
    return points, weights


def _cap(points: np.ndarray, workspace: _Workspace | None = None):
    """Spherical cap around each tile's nodes (4, T, m): centre (3, T), the
    normalized mean of the unit vectors, and radius (T,), the largest angle
    to one.  Angles come from chords, which stay accurate for small tiles.
    The offsets go into the workspace's scratch when one is given."""
    centre = points[:3].sum(axis=2)
    centre /= np.sqrt((centre * centre).sum(axis=0))
    offset = None
    if workspace is not None:
        offset = workspace.scratch[:3 * points.shape[1]].reshape(3, *points.shape[1:])
    offset = np.subtract(points[:3], centre[:, :, None], out=offset)
    offset *= offset
    chord = np.sqrt(offset.sum(axis=0).max(axis=1))
    return centre, 2.0 * np.arcsin(np.minimum(1.0, 0.5 * chord))


def _cap_gap(cap, means: np.ndarray) -> np.ndarray:
    """Least angle between any node of a tile and each mean: the angle from
    the tile's _cap centre to the mean less the cap's radius, or 0 where
    the cap holds the mean.  Shape (T, K)."""
    centre, radius = cap
    # Squared in place: a second (T, K, 3) temporary raised peak RSS.
    to_mean = centre.T[:, None, :] - means
    gap = np.sqrt(np.square(to_mean, out=to_mean).sum(axis=2))
    np.minimum(1.0, np.multiply(0.5, gap, out=gap), out=gap)
    gap = np.multiply(2.0, np.arcsin(gap, out=gap), out=gap)
    gap -= radius[:, None]
    return np.maximum(0.0, gap, out=gap)


def _cap_bound(cap, means: np.ndarray) -> np.ndarray:
    """Upper bound on the dot product of any node of a tile with each mean:
    the cosine of _cap_gap.  Shape (T, K).  The tests' slow form of the
    cull, which _cull_reach compares against the gap without a cosine."""
    return np.cos(_cap_gap(cap, means))


def _cull_reach(peaks: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """The largest _cap_gap at which a VMF term is kept on a tile, one per
    term: a node within it of the mean can reach exp(-_CULL_EXPONENT) of
    the term's largest value on the upper hemisphere, at whose
    _hemisphere_peaks ``peaks``.  alpha * (cos(gap) - peak) >= -40 holds
    while gap <= arccos(peak - 40 / alpha), which is pi where that is
    below -1."""
    return np.arccos(np.clip(peaks - _CULL_EXPONENT / alphas, -1.0, 1.0))


def _hemisphere_peaks(means: np.ndarray) -> np.ndarray:
    """Largest dot product of each mean with an upper-hemisphere direction:
    1 for a mean on or above the horizon, else the sine of its elevation,
    reached at the horizon."""
    return np.where(means[:, 2] >= 0.0, 1.0, np.hypot(means[:, 0], means[:, 1]))


def _peak_points(means: np.ndarray) -> np.ndarray:
    """Where each term is largest on the upper hemisphere, shape (K, 3): its
    mean when on or above the horizon, else the nearest horizon point.  A
    mean straight down is largest on the whole horizon and has no such
    point: its row is NaN, which no cap holds."""
    points = means.copy()
    below = points[:, 2] < 0.0
    points[below, 2] = 0.0
    horizontal = np.hypot(points[below, 0], points[below, 1])
    points[below] /= np.where(horizontal > 0.0, horizontal, np.nan)[:, None]
    return points


def _holds_narrow_peak(cap, points: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Whether each tile must be refined for each term, shape (T, K): its
    _cap holds the term's peak point (``points``, from _peak_points) and its
    radius exceeds _PEAK_WIDTHS term widths 1/sqrt(alpha).  Both Gauss
    rules of such a tile can fall beside the peak and agree on ~0.  The cap
    is taken at twice its radius, so a peak between the outer nodes and the
    tile's edge counts too."""
    centre, radius = cap
    held = radius[:, None] * np.sqrt(alphas) > _PEAK_WIDTHS
    # Distances only for the wide (tile, term) pairs, which are rare.
    tile, term = held.nonzero()
    chord = np.linalg.norm(centre.T[tile] - points[term], axis=1)
    held[tile, term] = 2.0 * np.arcsin(np.minimum(1.0, 0.5 * chord)) <= 2.0 * radius[tile]
    return held


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


def _pair_values(terms, constants, need, active, points: np.ndarray,
                 work: np.ndarray | None = None):
    """Spectrum at the nodes (4, T, m) of each (spectrum, tile) pair of a
    chunk that ``need`` (S, T) flags, a block of one tile's pairs at a
    time: yields (tile, spectra, values), ``values`` being (len(spectra), m).
    The products go into ``work`` (rows, m), or a new array where a block
    needs more rows.

    ``terms`` are stacked VMF terms (exponent rows, owning spectrum) and
    ``active`` (T, K) flags the ones evaluated on each tile.  A pair with
    none is its spectrum's constant, and is skipped where that is 0, as its
    estimates already are.  A block holds whole spectra, at most
    _BLOCK_ROWS active terms unless one spectrum has more.
    """
    rows, owner = terms
    tile_of, term = active.nonzero()
    rows = rows[term]
    pairs = need.T & np.not_equal(constants, 0.0)
    pairs[tile_of, owner[term]] = True
    pair_tile, pair_spectrum = pairs.nonzero()
    # Rows run in (tile, spectrum, term) order, so pair p owns rows
    # first[p]:first[p + 1].
    first = np.searchsorted(tile_of * len(need) + owner[term],
                            pair_tile * len(need) + pair_spectrum).tolist()
    first.append(len(term))
    tile_pairs = np.searchsorted(pair_tile, np.arange(points.shape[1] + 1)).tolist()
    if work is None:
        work = np.empty((_BLOCK_ROWS, points.shape[2]))
    for tile, nodes in enumerate(points.transpose(1, 0, 2)):
        lo, end = tile_pairs[tile:tile + 2]
        while lo < end:
            hi = lo + 1
            while hi < end and first[hi + 1] - first[lo] <= _BLOCK_ROWS:
                hi += 1
            top, size = first[lo], first[hi] - first[lo]
            if len(work) < size:
                work = np.empty((size, points.shape[2]))
            block = work[:size]
            np.matmul(rows[top:top + size], nodes, out=block)
            # A spectrum with one term takes the one-row product of a build
            # of it alone.
            for p in range(lo, hi):
                if first[p + 1] - first[p] == 1:
                    row = first[p] - top
                    np.matmul(rows[first[p]:first[p + 1]], nodes, out=block[row:row + 1])
            np.exp(block, out=block)
            spectra = pair_spectrum[lo:hi]
            values = np.empty((hi - lo, points.shape[2]))
            for value, spectrum, p in zip(values, spectra.tolist(), range(lo, hi)):
                block[first[p] - top:first[p + 1] - top].sum(
                    axis=0, initial=constants[spectrum], out=value
                )
            yield tile, spectra, values
            lo = hi


def _cell_integrals(spectra, cells) -> np.ndarray:
    """Adaptive cell integrals of A^2 / sqrt(1 - u^2 - v^2), shape
    (len(spectra), len(cells)); ``cells`` lists each cell's strips.

    Every strip starts as one tile over t in [0, 1], pending for every
    spectrum whose _hemisphere_maximum is not 0.  A level gives each tile a
    coarse and a fine estimate per spectrum it is pending for, _CHUNK_TILES
    tiles at a time.  A chunk's nodes, caps and the cull of the stacked
    terms of the spectra pending on any of its tiles are computed once, and
    _pair_values evaluates it tile by tile.  Where the two estimates agree
    and no term of the spectrum has a narrow peak in the tile's cap
    (_holds_narrow_peak), the fine one goes to that spectrum's cell; a tile
    some spectrum rejects or holds is bisected in v and t into four tiles
    of the next level, pending for those spectra.
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
    constants = [mixture[3] for mixture in mixtures]
    # Stacked VMF terms of all spectra, their exponent rows and owners.
    means, alphas = (np.concatenate([mixture[k] for mixture in mixtures]) for k in range(2))
    rows = np.concatenate([np.column_stack((a[:, None] * m, np.log(c) - a))
                           for m, a, c, _constant in mixtures])
    term_owner = np.repeat(np.arange(len(spectra)), [len(mixture[1]) for mixture in mixtures])
    reach = _cull_reach(_hemisphere_peaks(means), alphas)
    peak_points = _peak_points(means)
    workspace = _workspace(_CHUNK_TILES)
    n_coarse = _N_COARSE * _N_COARSE
    depth = 0
    while pending.any():
        coarse, fine = np.zeros((2, *pending.shape))
        held = np.zeros_like(pending)
        for start in range(0, len(tiles), _CHUNK_TILES):
            chunk = slice(start, start + _CHUNK_TILES)
            need = pending[:, chunk]
            points, weights = _tile_nodes(tiles[chunk], workspace)
            # The terms of the spectra pending on any tile of the chunk.
            columns = need.any(axis=1)[term_owner].nonzero()[0]
            terms = rows[columns], term_owner[columns]
            cap = _cap(points, workspace)
            active = _cap_gap(cap, means[columns]) <= reach[columns]
            active &= need[terms[1]].T
            narrow = _holds_narrow_peak(cap, peak_points[columns], alphas[columns])
            tile_of, term = (narrow & need[terms[1]].T).nonzero()
            held[terms[1][term], start + tile_of] = True
            for tile, spectra, values in _pair_values(
                terms, constants, need, active, points, workspace.scratch
            ):
                values *= weights[tile]
                coarse[spectra, start + tile] = values[:, :n_coarse].sum(axis=1)
                fine[spectra, start + tile] = values[:, n_coarse:].sum(axis=1)
        done = np.abs(fine - coarse) <= _TILE_RTOL * np.abs(fine) + _TILE_ATOL
        done &= pending & ~held
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
    if not spectra:
        return []
    geometry = harmonic_geometry(aperture_x, aperture_y)
    integrals = _cell_integrals(spectra, geometry.strips)
    return [SpectralLattice(aperture_x, aperture_y, geometry.indices, row)
            for row in integrals]


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
    geometry = harmonic_geometry(aperture_x, aperture_y)
    cells = geometry.disk.copy()
    if cells.sum() != 1.0:
        raise ValueError(
            f"aperture ({aperture_x}, {aperture_y}) has {cells.sum():g} cells "
            f"in the unit disk, not one"
        )
    if _hemisphere_maximum(spectrum) == 0.0:
        raise DegenerateSpectrum("spectrum vanishes on the visible hemisphere")
    return SpectralLattice(aperture_x, aperture_y, geometry.indices, cells)


def build_variance_table(
    bs_lattice: SpectralLattice, ue_lattice: SpectralLattice
) -> np.ndarray:
    """The separable variances of one link's harmonic pairs: a read-only
    (n_ue, n_bs) array, summing to 1, of the two lattices' normalized cell
    integrals.

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
    variances = np.outer(*ends)
    variances.flags.writeable = False
    return variances


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
