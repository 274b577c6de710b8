"""Level-batched cell quadrature against the recursive rule it replaced.

``build_lattice`` and ``marginal_integral`` evaluate all pending tiles of
all cells one bisection level at a time, with direction-cosine unit-vector
nodes and VMF terms culled per tile by a spherical-cap bound.  The recursive
per-tile rule below, with its angle round trip through ``spectrum_value``
and no culling, is the oracle: every cell must agree within the adaptive
rule's own tolerance.  It shares one rule with the lattice: a tile whose
cap holds a cluster's peak and is wide against the cluster
(``_holds_narrow_peak``) is bisected whether or not its estimates agree.  ``build_lattices`` runs the same rule for several
spectra in one pass; each of its lattices must equal the solo build.  A
tile's node values come from one matrix product of the exponent rows
(alpha * mean, ln(coef) - alpha) of the clusters of all spectra that
survive on it; the textbook per-cluster loop in ``node_values_oracle`` is
their oracle within rounding, and lattices built with it agree within
1e-12 of their totals.  The pass computes each chunk's nodes, caps and cull
once for all spectra; ``cell_integrals_oracle`` computes them per batch of
four tiles and per spectrum, with the same exponent rows, and every
lattice must be bitwise its result, whichever spectra share its pass and
however its tile's rows are blocked.
"""

import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import holomimo
import holomimo.lattice as lat
from holomimo import (
    AngularPowerSpectrum,
    VmfComponent,
    build_lattice,
    build_lattices,
    build_variance_table,
    concentration_from_spread,
    enumerate_lattice,
    load_cdl_rows,
    rotate_spectrum,
    spectra_from_cdl,
)
from holomimo.capacity import drop_users
from holomimo.cli import main
from holomimo.config import bundled_cdl_path
from holomimo.errors import QuadratureNotConverged
from holomimo.spectrum import _ISOTROPIC_ALPHA
from holomimo.sweep import _drop_seed
import cell_integrals_oracle
from cell_integrals_oracle import cap_bound
from marginal_integral_oracle import marginal_integral
from node_values_oracle import node_values
from spectrum_oracle import spectrum_value
from tile_nodes_oracle import tile_nodes

ISO = AngularPowerSpectrum.isotropic()
CDL_BS, CDL_UE = spectra_from_cdl(
    load_cdl_rows(bundled_cdl_path()), asd_deg=10.0, asa_deg=20.0
)


def oracle_tile_estimate(evaluate, u0, u1, v0, v1, t0, t1, n):
    """Tensor Gauss-Legendre estimate of one tile, nodes in angles."""
    x, w = np.polynomial.legendre.leggauss(n)
    s = 0.5 + 0.5 * x
    dv = v1 - v0
    v = v0 + dv * (3.0 - 2.0 * s) * s * s
    vjac = 6.0 * dv * s * (1.0 - s)
    rho = np.sqrt(np.maximum(0.0, 1.0 - v * v))
    lo = np.maximum(u0, -rho)
    hi = np.minimum(u1, rho)
    valid = (hi - lo) > 0.0
    if not np.any(valid):
        return 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        om0 = np.arcsin(np.clip(np.where(valid, lo / rho, 0.0), -1.0, 1.0))
        om1 = np.arcsin(np.clip(np.where(valid, hi / rho, 0.0), -1.0, 1.0))
    t = 0.5 * (t1 + t0) + 0.5 * (t1 - t0) * x
    omega = om0[:, None] + (om1 - om0)[:, None] * t[None, :]
    u = rho[:, None] * np.sin(omega)
    wdir = rho[:, None] * np.cos(omega)
    theta = np.arccos(np.clip(wdir, -1.0, 1.0))
    phi = np.arctan2(v[:, None], u)
    values = evaluate(theta, phi)
    jac = 0.5 * vjac * (om1 - om0) * 0.5 * (t1 - t0)
    return float(np.einsum("i,j,ij->", w, w, values * jac[:, None]))


def oracle_integrate_tile(evaluate, holds, u0, u1, v0, v1, t0, t1, depth):
    """Recursive 4-way bisection until coarse and fine estimates agree and
    ``holds`` lets the tile go."""
    coarse = oracle_tile_estimate(evaluate, u0, u1, v0, v1, t0, t1, lat._N_COARSE)
    fine = oracle_tile_estimate(evaluate, u0, u1, v0, v1, t0, t1, lat._N_FINE)
    agree = abs(fine - coarse) <= lat._TILE_RTOL * abs(fine) + lat._TILE_ATOL
    if agree and not holds(u0, u1, v0, v1, t0, t1):
        return fine
    if depth >= lat._MAX_DEPTH:
        raise QuadratureNotConverged(f"not converged after depth {depth}")
    vm = 0.5 * (v0 + v1)
    tm = 0.5 * (t0 + t1)
    return (
        oracle_integrate_tile(evaluate, holds, u0, u1, v0, vm, t0, tm, depth + 1)
        + oracle_integrate_tile(evaluate, holds, u0, u1, v0, vm, tm, t1, depth + 1)
        + oracle_integrate_tile(evaluate, holds, u0, u1, vm, v1, t0, tm, depth + 1)
        + oracle_integrate_tile(evaluate, holds, u0, u1, vm, v1, tm, t1, depth + 1)
    )


def oracle_cells(spectrum, aperture_x, aperture_y):
    """Every cell integral of a lattice by the recursive rule."""

    def evaluate(theta, phi):
        return np.asarray(spectrum_value(spectrum, theta, phi), dtype=float)

    means, alphas = spectrum.mixture_arrays[:2]
    peak_points = lat._peak_points(means)
    workspace = lat._workspace(1)

    def holds(*tile):
        points, _weights = lat._tile_nodes(np.array([tile]), workspace)
        cap = lat._cap(points, workspace)
        return lat._holds_narrow_peak(cap, peak_points, alphas).any()

    out = []
    for index in enumerate_lattice(aperture_x, aperture_y):
        total = sum(
            oracle_integrate_tile(evaluate, holds, u0, u1, v0, v1, 0.0, 1.0, 0)
            for u0, u1, v0, v1 in lat._cell_strips(index, aperture_x, aperture_y)
        )
        out.append(max(0.0, total))
    return np.array(out)


def single_vmf(spread_deg, azimuth, elevation):
    return AngularPowerSpectrum.mixture(
        [VmfComponent(1.0, azimuth, elevation, concentration_from_spread(spread_deg))]
    )


spectra = st.one_of(
    st.just(ISO),
    st.builds(
        rotate_spectrum,
        st.sampled_from([CDL_BS, CDL_UE]),
        st.floats(-math.pi, math.pi),
    ),
    st.builds(
        single_vmf,
        st.floats(1.0, 20.0),
        st.floats(-math.pi, math.pi),
        st.floats(0.0, math.pi),
    ),
    # Just behind the aperture: only the tail reaches the hemisphere, and
    # the lattice total can be far below the rule's absolute floor.
    st.builds(
        single_vmf,
        st.floats(1.0, 20.0),
        st.floats(-math.pi, math.pi),
        st.floats(0.5 * math.pi, 0.5 * math.pi + 0.35),
    ),
)
apertures = st.floats(0.5, 4.0)


@settings(max_examples=40, deadline=None)
@given(
    spectrum=spectra,
    aperture_x=apertures,
    aperture_y=st.one_of(st.none(), apertures),
)
# Largest hemisphere value 7e-314: the rule keeps a total of 2.3e-319.
@example(spectrum=single_vmf(1.0, 1.0, 1.75), aperture_x=2.0, aperture_y=None)
# A 1-degree cluster 8.5 degrees behind the aperture: its horizon peak, of
# 6.2e-212, falls between all nodes of tiles that are not held around it.
@example(spectrum=single_vmf(1.0, 0.0, 1.71875), aperture_x=1.0, aperture_y=2.0)
def test_cells_match_the_recursive_rule(spectrum, aperture_x, aperture_y):
    # aperture_y None draws a square aperture.
    aperture_y = aperture_x if aperture_y is None else aperture_y
    got = build_lattice(aperture_x, aperture_y, spectrum).marginal_integrals
    expected = oracle_cells(spectrum, aperture_x, aperture_y)
    if lat._hemisphere_maximum(spectrum) == 0.0:
        # Below the smallest normal float everywhere on the hemisphere, the
        # spectrum counts as 0 there: no cell keeps any mass, and what the
        # rule keeps is at most the hemisphere's 2*pi times that float.
        assert not got.any()
        assert expected.sum() <= 2.0 * math.pi * sys.float_info.min
        return
    error = np.abs(got - expected)
    np.testing.assert_array_less(error, 1e-6 * np.abs(expected) + 1e-15)
    # The absolute floor passes any cell of a lattice whose total is below
    # it; measured against the total, no cell may be lost either.
    assert np.all(error <= 1e-6 * np.abs(expected) + 1e-9 * expected.sum())


@pytest.mark.parametrize(
    "index,aperture", [((0, 0), 0.5), ((1, 0), 1.0), ((-3, 2), 4.0), ((2, -1), 2.5)]
)
def test_marginal_integral_is_the_lattice_cell(index, aperture):
    spectrum = rotate_spectrum(CDL_BS, 0.4)
    lattice = build_lattice(aperture, aperture, spectrum)
    cell = lattice.marginal_integrals[lattice.indices.index(index)]
    assert marginal_integral(index, spectrum, aperture, aperture) == pytest.approx(
        cell, rel=1e-12, abs=1e-18
    )


# Spectra that stop refining at different depths, so a shared pass holds
# tiles that only some of them still need.  Spreads stay at 5 degrees and
# above, clear of the narrow clusters a wide tile can miss.
MIXED_DEPTHS = [
    ISO,
    *(rotate_spectrum(CDL_BS, a) for a in (-2.5, -0.4, 1.1)),
    *(rotate_spectrum(CDL_UE, a) for a in (0.3, 2.9)),
    single_vmf(5.0, 0.3, 0.8),
    single_vmf(12.0, -1.9, 1.2),
    single_vmf(20.0, 2.2, 0.2),
    single_vmf(8.0, 1.0, 0.5 * math.pi + 0.2),
]


@pytest.mark.parametrize("aperture_x,aperture_y", [(1.0, 1.0), (2.5, 1.5), (4.0, 4.0)])
def test_batched_lattices_equal_solo_builds(aperture_x, aperture_y):
    batched = build_lattices(aperture_x, aperture_y, MIXED_DEPTHS)
    assert len(batched) == len(MIXED_DEPTHS)
    for lattice, spectrum in zip(batched, MIXED_DEPTHS):
        solo = build_lattice(aperture_x, aperture_y, spectrum)
        assert lattice.indices == solo.indices
        np.testing.assert_allclose(
            lattice.marginal_integrals, solo.marginal_integrals, rtol=1e-13, atol=0.0
        )


def test_batched_lattices_are_bitwise_solo_builds():
    # A spectrum's batches in a shared pass also hold tiles of other
    # spectra; its node values, and so its cells, must not notice.
    spectra = [*MIXED_DEPTHS, *(rotate_spectrum(CDL_BS, a) for a in (-1.7, 0.9, 2.6))]
    for lattice, spectrum in zip(build_lattices(4.0, 4.0, spectra), spectra):
        solo = build_lattice(4.0, 4.0, spectrum)
        assert lattice.marginal_integrals.tobytes() == solo.marginal_integrals.tobytes()


def test_copies_of_a_spectrum_share_every_tile(monkeypatch):
    spectrum = rotate_spectrum(CDL_BS, 0.7)
    rows = []
    original = lat._tile_nodes

    def recording(tiles, *workspace):
        rows.append(tiles.copy())
        return original(tiles, *workspace)

    monkeypatch.setattr(lat, "_tile_nodes", recording)
    (one,) = build_lattices(2.0, 2.0, [spectrum])
    once = np.vstack(rows)
    rows.clear()
    five = build_lattices(2.0, 2.0, [spectrum] * 5)
    np.testing.assert_array_equal(np.vstack(rows), once)
    for lattice in five:
        np.testing.assert_array_equal(lattice.marginal_integrals, one.marginal_integrals)


def test_tiles_a_spectrum_accepted_get_no_vmf_term(monkeypatch):
    original = lat._pair_values
    skipped, evaluated, unevaluated = [], [], []

    def checking(terms, constants, need, active, points, *work):
        owner = terms[1]
        # A term is active only on the tiles its spectrum still needs.
        assert not (active & ~need[owner].T).any()
        # Each chunk's tiles a pending spectrum has accepted are skipped.
        skipped.append((need.any(axis=1)[:, None] & ~need).sum())
        seen = np.zeros_like(need)
        for tile, spectra, values in original(terms, constants, need, active, points,
                                              *work):
            seen[spectra, tile] = True
            for spectrum, value in zip(spectra, values):
                # A pair without an active term keeps the constant term alone.
                if not active[tile, owner == spectrum].any():
                    assert constants[spectrum] != 0.0
                    assert np.all(value == constants[spectrum])
            yield tile, spectra, values
        # Exactly the (spectrum, tile) pairs the chunk needs are evaluated,
        # but for those without an active term whose constant is 0: they
        # are 0 at every node, as their estimates already are.
        has_term = np.zeros_like(need)
        tile_of, term = active.nonzero()
        has_term[owner[term], tile_of] = True
        zero = need & ~has_term & (np.array(constants) == 0.0)[:, None]
        np.testing.assert_array_equal(seen, need & ~zero)
        evaluated.append(need.sum())
        unevaluated.append(zero.sum())

    monkeypatch.setattr(lat, "_pair_values", checking)
    build_lattices(4.0, 4.0, MIXED_DEPTHS)
    assert sum(skipped) > 0
    assert sum(unevaluated) > 0
    # The oracle evaluates whole batches, with a spectrum's pending tiles
    # flagged: the pass evaluates exactly those (spectrum, tile) pairs.
    pending = []
    original_oracle = cell_integrals_oracle.node_values

    def counting(mixture, peaks, points, cap, need):
        pending.append(need.sum())
        return original_oracle(mixture, peaks, points, cap, need)

    monkeypatch.setattr(cell_integrals_oracle, "node_values", counting)
    cell_integrals_oracle.cell_integrals(MIXED_DEPTHS, lattice_strips(4.0, 4.0))
    assert sum(evaluated) == sum(pending)


def lattice_strips(aperture_x, aperture_y):
    return [lat._cell_strips(index, aperture_x, aperture_y)
            for index in enumerate_lattice(aperture_x, aperture_y)]


def assert_bitwise_oracle(spectra, aperture_x, aperture_y):
    got = build_lattices(aperture_x, aperture_y, spectra)
    expected = cell_integrals_oracle.cell_integrals(
        spectra, lattice_strips(aperture_x, aperture_y)
    )
    assert len(got) == len(expected) == len(spectra)
    for lattice, row in zip(got, expected):
        assert lattice.marginal_integrals.tobytes() == row.tobytes()


# The rotated departure spectra of the 20 users of a seed-0 fig4-halfwave
# sample: two realizations of the fig4-multiuser scenario's ten users.
FIG4_DEPARTURES = [
    rotate_spectrum(CDL_BS, math.radians(drop.azimuth_deg))
    for r in (0, 1)
    for drop in drop_users(10, _drop_seed(0, r))
]


def test_fig4_departure_lattices_are_bitwise_the_oracle():
    assert_bitwise_oracle(FIG4_DEPARTURES, 4.0, 4.0)


@pytest.mark.parametrize("aperture_x,aperture_y", [(1.0, 1.0), (2.5, 1.5), (4.0, 4.0)])
def test_mixed_depth_lattices_are_bitwise_the_oracle(aperture_x, aperture_y):
    assert_bitwise_oracle(MIXED_DEPTHS, aperture_x, aperture_y)


@pytest.mark.parametrize("aperture_x,aperture_y", [(1.0, 1.0), (2.5, 1.5), (4.0, 4.0)])
@pytest.mark.parametrize("name", ["fig4-departures", "mixed-depths"])
def test_fused_lattices_agree_with_textbook_ones(monkeypatch, name, aperture_x,
                                                 aperture_y):
    # The pass evaluates each term as exp((alpha * mean, ln(coef) - alpha) .
    # (node, 1)); the same rule with the textbook coef * exp(alpha *
    # (mean . node - 1)) of node_values_oracle differs by rounding alone.
    spectra = {"fig4-departures": FIG4_DEPARTURES, "mixed-depths": MIXED_DEPTHS}[name]
    fused = build_lattices(aperture_x, aperture_y, spectra)
    monkeypatch.setattr(cell_integrals_oracle, "node_values", node_values)
    textbook = cell_integrals_oracle.cell_integrals(
        spectra, lattice_strips(aperture_x, aperture_y)
    )
    for lattice, cells in zip(fused, textbook):
        error = np.abs(lattice.marginal_integrals - cells).max()
        assert error <= 1e-12 * cells.sum()


def test_a_subnormal_maximum_among_normal_ones_is_bitwise_the_oracle():
    # Behind the aperture, with its largest hemisphere value 4.6e-321.
    subnormal = single_vmf(6.25, 0.0, 2.7734375)
    assert lat._hemisphere_maximum(subnormal) == 0.0
    spectra = [MIXED_DEPTHS[1], subnormal, MIXED_DEPTHS[6], ISO]
    assert_bitwise_oracle(spectra, 2.5, 1.5)
    assert not build_lattices(2.5, 1.5, spectra)[1].marginal_integrals.any()


def test_partial_chunks_are_bitwise_the_oracle(monkeypatch):
    # A level whose tile count is not a multiple of the chunk ends in a
    # short chunk, and a chunk can hold tiles a spectrum has accepted next
    # to tiles it still needs.
    original_nodes, original_values = lat._tile_nodes, lat._pair_values
    chunk, partial = [], []

    def recording(tiles, *workspace):
        chunk.append(len(tiles))
        return original_nodes(tiles, *workspace)

    def checking(terms, constants, need, active, points, *work):
        partial.append((need.any(axis=1) & ~need.all(axis=1)).any())
        return original_values(terms, constants, need, active, points, *work)

    monkeypatch.setattr(lat, "_tile_nodes", recording)
    monkeypatch.setattr(lat, "_pair_values", checking)
    spectra = [ISO, MIXED_DEPTHS[7], MIXED_DEPTHS[2]]
    assert_bitwise_oracle(spectra, 2.5, 1.5)
    assert any(size < lat._CHUNK_TILES for size in chunk)
    assert any(partial)


def test_twenty_rotated_spectra_take_at_most_16_chunks(monkeypatch):
    calls = Counter()
    for name in ("_tile_nodes", "_cap_gap"):
        original = getattr(lat, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(lat, name, counted)
    build_lattices(4.0, 4.0, FIG4_DEPARTURES)
    assert 0 < calls["_tile_nodes"] <= 16
    assert 0 < calls["_cap_gap"] <= 16


def test_no_spectra_build_no_lattices():
    assert build_lattices(2.0, 2.0, []) == []


def random_tiles(rng, count):
    """Tiles of random position and size, down to depth-14 widths."""
    u0 = rng.uniform(-1.0, 1.0, count)
    v0 = rng.uniform(-1.0, 1.0, count)
    t0 = rng.uniform(0.0, 1.0, count)
    size = 2.0 ** -rng.integers(0, 15, count)
    return np.column_stack(
        [
            u0,
            np.minimum(1.0, u0 + 2.0 * size * rng.uniform(0.01, 1.0, count)),
            v0,
            np.minimum(1.0, v0 + 2.0 * size * rng.uniform(0.01, 1.0, count)),
            t0,
            np.minimum(1.0, t0 + size),
        ]
    )


def test_cap_bound_dominates_every_node_dot_product():
    rng = np.random.default_rng(5)
    means = rng.normal(size=(64, 3))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    workspace = lat._workspace(lat._CHUNK_TILES)
    for _ in range(50):
        points, _weights = lat._tile_nodes(random_tiles(rng, lat._CHUNK_TILES), workspace)
        assert np.all(points[3] == 1.0)
        # A third of the means sit next to a node, where the bound is tightest.
        near = points[:3, :, rng.integers(0, points.shape[2], 32)].reshape(3, -1).T
        near = near[rng.integers(0, len(near), 32)] + rng.normal(scale=1e-4, size=(32, 3))
        near /= np.linalg.norm(near, axis=1, keepdims=True)
        all_means = np.vstack([means, near])
        largest = np.einsum("itm,ki->tkm", points[:3], all_means).max(axis=2)
        bound = cap_bound(lat._cap(points, workspace), all_means)
        assert np.all(bound >= largest)
        # No node beats a mean's largest dot product over the hemisphere.
        assert np.all(largest <= lat._hemisphere_peaks(all_means) + 1e-15)


def test_peak_points_are_where_each_term_is_largest_on_the_hemisphere():
    rng = np.random.default_rng(7)
    means = rng.normal(size=(64, 3))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    points = lat._peak_points(means)
    assert np.all(points[:, 2] >= 0.0)
    np.testing.assert_allclose(np.linalg.norm(points, axis=1), 1.0, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(
        (points * means).sum(axis=1), lat._hemisphere_peaks(means), rtol=0.0, atol=1e-15
    )
    # Straight down, the whole horizon is the peak: no point, and no hold.
    assert np.isnan(lat._peak_points(np.array([[0.0, 0.0, -1.0]]))).all()


def test_a_tile_is_held_only_while_wide_around_a_peak_in_its_cap():
    # Both sides of the cap, taken at twice its radius, and of the width.
    rng = np.random.default_rng(8)
    workspace = lat._workspace(lat._CHUNK_TILES)
    for _ in range(10):
        points, _weights = lat._tile_nodes(random_batch(rng), workspace)
        centre, radius = lat._cap(points, workspace)
        for tile in range(points.shape[1]):
            cap, r = (centre[:, tile:tile + 1], radius[tile:tile + 1]), radius[tile]
            if 2.01 * r >= math.pi:
                continue
            side = np.cross(centre[:, tile], rng.normal(size=3))
            side /= np.linalg.norm(side)
            angles = np.array([[1.99 * r], [2.01 * r]])
            peaks = np.vstack([
                points[:3, tile, rng.integers(points.shape[2])],
                np.cos(angles) * centre[:, tile] + np.sin(angles) * side,
            ])
            for widths, held in ((2.0, [True, True, False]), (0.5, [False] * 3)):
                alphas = np.full(3, (widths * lat._PEAK_WIDTHS / r) ** 2)
                assert lat._holds_narrow_peak(cap, peaks, alphas)[0].tolist() == held


def random_batch(rng):
    """A chunk of tiles, each a cell strip bisected 0 to 10 times."""
    aperture = rng.uniform(0.5, 4.0)
    indices = enumerate_lattice(aperture, aperture)
    tiles = []
    while len(tiles) < lat._CHUNK_TILES:
        index = indices[rng.integers(len(indices))]
        strips = lat._cell_strips(index, aperture, aperture)
        if not strips:
            continue
        tile = np.array([strips[rng.integers(len(strips))] + (0.0, 1.0)])
        for _ in range(rng.integers(0, 11)):
            tile = lat._quarter(tile)[rng.integers(4), None]
        tiles.append(tile[0])
    return np.array(tiles)


def test_tile_nodes_in_a_pass_workspace_are_the_oracle_bit_for_bit():
    # One workspace serves chunks of any size up to _CHUNK_TILES in turn,
    # each writing over what the one before left.
    rng = np.random.default_rng(29)
    workspace = lat._workspace(lat._CHUNK_TILES)
    for _ in range(6):
        tiles = random_batch(rng)[:rng.integers(1, lat._CHUNK_TILES + 1)]
        points, weights = lat._tile_nodes(tiles, workspace)
        assert np.shares_memory(points, workspace.points)
        assert np.shares_memory(weights, workspace.weights)
        expected_points, expected_weights = tile_nodes(tiles)
        assert points.tobytes() == expected_points.tobytes()
        assert weights.tobytes() == expected_weights.tobytes()
        centre, radius = lat._cap(points, workspace)
        expected_centre, expected_radius = lat._cap(expected_points, lat._workspace(len(tiles)))
        assert centre.tobytes() == expected_centre.tobytes()
        assert radius.tobytes() == expected_radius.tobytes()


def test_cull_reach_keeps_the_terms_the_cap_bound_keeps():
    # The pass compares each (tile, term) gap with a per-term reach instead
    # of taking a cosine per pair: both keep the same terms, from broad to
    # very narrow ones, with means above and below the horizon.
    rng = np.random.default_rng(31)
    workspace = lat._workspace(lat._CHUNK_TILES)
    for _ in range(40):
        means = rng.normal(size=(96, 3))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        alphas = 10.0 ** rng.uniform(-1.0, 6.0, len(means))
        peaks = lat._hemisphere_peaks(means)
        cap = lat._cap(lat._tile_nodes(random_batch(rng), workspace)[0], workspace)
        bound = alphas * (cap_bound(cap, means) - peaks) >= -lat._CULL_EXPONENT
        reach = lat._cap_gap(cap, means) <= lat._cull_reach(peaks, alphas)
        np.testing.assert_array_equal(reach, bound)
        assert 0 < bound.sum() < bound.size


def random_mixture(rng, with_constant):
    """1-25 VMF clusters with means anywhere on the sphere and alpha from 5
    up to a random ceiling of at most 5e4; ``with_constant`` adds a
    component below the isotropic limit, which enters the mixture as its
    constant term."""
    count = rng.integers(1, 26)
    weights = rng.uniform(0.1, 1.0, count + with_constant)
    weights /= weights.sum()
    ceiling = rng.uniform(0.0, 4.0)
    components = [
        VmfComponent(w, rng.uniform(-math.pi, math.pi), math.acos(rng.uniform(-1, 1)),
                     5.0 * 10.0 ** rng.uniform(0.0, ceiling))
        for w in weights[:count]
    ]
    if with_constant:
        components.append(VmfComponent(weights[count], 0.0, 1.0, 0.5 * _ISOTROPIC_ALPHA))
    return AngularPowerSpectrum.mixture(components).mixture_arrays


def stacked_terms(mixtures):
    """(means, alphas, exponent rows, owning spectrum) of mixtures' stacked
    VMF terms, as _cell_integrals stacks them."""
    return (
        *(np.concatenate([mixture[k] for mixture in mixtures]) for k in range(2)),
        np.concatenate([np.column_stack((a[:, None] * m, np.log(c) - a))
                        for m, a, c, _constant in mixtures]),
        np.repeat(np.arange(len(mixtures)), [len(mixture[1]) for mixture in mixtures]),
    )


def test_node_values_match_the_per_cluster_loop():
    rng = np.random.default_rng(10)
    workspace = lat._workspace(lat._CHUNK_TILES)
    for draw in range(120):
        mixtures = [random_mixture(rng, with_constant=(draw + k) % 4 == 0)
                    for k in range(rng.integers(1, 5))]
        assert [mixture[3] > 0.0 for mixture in mixtures] == [
            (draw + k) % 4 == 0 for k in range(len(mixtures))
        ]
        means, alphas, rows, owner = stacked_terms(mixtures)
        peaks = lat._hemisphere_peaks(means)
        points, _weights = lat._tile_nodes(random_batch(rng), workspace)
        cap = lat._cap(points, workspace)
        need = rng.random((len(mixtures), lat._CHUNK_TILES)) < (0.0, 0.5, 1.0)[draw % 3]
        survivors = alphas * (cap_bound(cap, means) - peaks) >= -lat._CULL_EXPONENT
        got = np.full((len(mixtures), *points.shape[1:]), np.nan)
        for tile, spectra, values in lat._pair_values(
            (rows, owner), [mixture[3] for mixture in mixtures], need,
            survivors & need[owner].T, points, workspace.scratch,
        ):
            got[spectra, tile] = values
        # No pair outside ``need`` is evaluated.
        assert np.all(np.isnan(got[~need]))
        for spectrum, mixture in enumerate(mixtures):
            mine = owner == spectrum
            expected = node_values(mixture, peaks[mine], points, cap, need[spectrum])
            pending = need[spectrum]
            bare = pending & ~survivors[:, mine].any(axis=1)
            assert np.all(expected[bare] == mixture[3])
            # A pair without a surviving term is its constant, and is not
            # evaluated where that is 0.
            if mixture[3] == 0.0:
                assert np.all(np.isnan(got[spectrum, bare]))
                pending = pending & ~bare
            assert np.all(got[spectrum, bare & pending] == mixture[3])
            got_pending, expected_pending = got[spectrum, pending], expected[pending]
            # The textbook form rounds each dot product to about an ulp of 1
            # and exp(alpha * (dot - 1)) turns that into alpha ulps of
            # relative change; the fused exponent rounds alpha * mean and
            # ln(coef) - alpha to a few ulps of alpha, the same order: 1e-13
            # up to alpha ~ 110, ~1e-11 at alpha 5e4.  Where both values are
            # subnormal, their precision is gone and only that is asserted.
            rtol = max(1e-13, 4.0 * np.finfo(float).eps * mixture[1].max())
            tiny = np.finfo(float).tiny
            subnormal = (got_pending < tiny) & (expected_pending < tiny)
            np.testing.assert_allclose(got_pending[~subnormal],
                                       expected_pending[~subnormal],
                                       rtol=rtol, atol=0.0)


def test_one_term_tiles_do_not_depend_on_the_pass(monkeypatch):
    # Two clusters 120 degrees apart: on the tiles around either, only that
    # one survives the cull.  Its lattice must have the same bytes built
    # alone, next to spectra with many terms on those tiles, and in a pass
    # whose row cap splits their rows into several blocks.
    two = AngularPowerSpectrum.mixture([
        VmfComponent(0.5, 0.0, 0.6, concentration_from_spread(6.0)),
        VmfComponent(0.5, 2.1, 0.6, concentration_from_spread(6.0)),
    ])
    original = lat._pair_values
    shared, split = [], []

    def recording(terms, constants, need, active, points, *work):
        owner = terms[1]
        rows = active.sum(axis=1)
        one_term = (active[:, owner == 0].sum(axis=1) == 1) & (rows > 1)
        shared.append(one_term.any())
        split.append((one_term & (rows > lat._BLOCK_ROWS)).any())
        return original(terms, constants, need, active, points, *work)

    alone = build_lattice(4.0, 4.0, two).marginal_integrals.tobytes()
    monkeypatch.setattr(lat, "_pair_values", recording)
    crowd = [two, *FIG4_DEPARTURES[:6]]
    assert build_lattices(4.0, 4.0, crowd)[0].marginal_integrals.tobytes() == alone
    assert any(shared)
    assert not any(split)
    monkeypatch.setattr(lat, "_BLOCK_ROWS", 8)
    assert build_lattices(4.0, 4.0, crowd)[0].marginal_integrals.tobytes() == alone
    assert any(split)


def test_rows_of_a_product_of_two_or_more_rows_are_the_rows_of_any_larger_one():
    # _pair_values stacks the terms of several spectra into one product; a
    # spectrum's rows keep their bits only if the BLAS computes a row the
    # same way whatever rows surround it.  A one-row product may not (it
    # goes through a matrix-vector kernel), so it is never stacked.  Both
    # the unit means against the nodes (3 columns) and the exponent rows
    # (alpha * mean, ln(coef) - alpha) against the homogeneous nodes (4
    # columns, the product _pair_values takes) are checked.
    rng = np.random.default_rng(19)
    workspace = lat._workspace(lat._CHUNK_TILES)
    for _ in range(300):
        points, _weights = lat._tile_nodes(random_batch(rng), workspace)
        nodes = points[:, rng.integers(points.shape[1])]
        rows = int(rng.integers(2, 2 * lat._BLOCK_ROWS))
        means = rng.normal(size=(rows, 3))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        alphas = 5.0 * 10.0 ** rng.uniform(0.0, 4.0, rows)
        coefs = rng.uniform(0.01, 1.0, rows) * alphas / (2.0 * math.pi)
        exponent_rows = np.column_stack((alphas[:, None] * means, np.log(coefs) - alphas))
        for matrix, right in ((means, nodes[:3]), (exponent_rows, nodes)):
            full = matrix @ right
            k = int(rng.integers(2, rows + 1))
            top = int(rng.integers(0, rows - k + 1))
            assert (matrix[top:top + k] @ right).tobytes() == full[top:top + k].tobytes()


def test_lattices_do_not_depend_on_the_blas_thread_count():
    # Rotated CDL-B lattices of both link ends, built here and in child
    # processes with one and with two BLAS threads.  Importing holomimo
    # sets one thread, so each child sets its count through the exported
    # setter afterwards and checks it took.
    script = """
import ctypes, sys
import numpy as np
from numpy.linalg import _umath_linalg
from holomimo import build_lattices, load_cdl_rows, rotate_spectrum, spectra_from_cdl
from holomimo.config import bundled_cdl_path
library = ctypes.CDLL(_umath_linalg.__file__)
try:
    setter = library.scipy_openblas_set_num_threads64_
    getter = library.scipy_openblas_get_num_threads64_
except AttributeError:
    sys.exit(3)
setter.argtypes, setter.restype, getter.restype = [ctypes.c_int], None, ctypes.c_int
setter(int(sys.argv[1]))
assert getter() == int(sys.argv[1]), getter()
ends = spectra_from_cdl(load_cdl_rows(bundled_cdl_path()), asd_deg=10.0, asa_deg=20.0)
for aperture, spectrum in zip((4.0, 1.0), ends):
    rotated = [rotate_spectrum(spectrum, a) for a in np.linspace(-2.0, 2.5, 5)]
    for lattice in build_lattices(aperture, aperture, rotated):
        sys.stdout.write(lattice.marginal_integrals.tobytes().hex() + "\\n")
"""
    package_root = str(Path(holomimo.__file__).resolve().parents[1])
    children = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(
                filter(None, [package_root, os.environ.get("PYTHONPATH")])
            ),
        }
        proc = subprocess.run(
            [sys.executable, "-c", script, threads], capture_output=True, text=True,
            env=env,
        )
        if proc.returncode == 3:
            pytest.skip("numpy's BLAS exports no scipy_openblas thread setter")
        assert proc.returncode == 0, proc.stderr
        children.append(proc.stdout.split())
    single_threaded, two_threads = children
    assert two_threads == single_threaded
    here = []
    for aperture, spectrum in ((4.0, CDL_BS), (1.0, CDL_UE)):
        rotated = [rotate_spectrum(spectrum, a) for a in np.linspace(-2.0, 2.5, 5)]
        here += [lattice.marginal_integrals.tobytes().hex()
                 for lattice in build_lattices(aperture, aperture, rotated)]
    assert len(here) == 10
    assert single_threaded == here


@pytest.mark.parametrize(
    "asd_deg,rotation", [(10.0, 1.1), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (5.0, 0.0)]
)
def test_culling_skips_only_negligible_terms(monkeypatch, asd_deg, rotation):
    # Against the same rule with culling turned off, culling moves no cell
    # beyond 1e-9 of the lattice total.  Every CDL-B departure cluster has
    # its zenith 8 to 30 degrees below the horizon, so the BS lattice holds
    # only tails, far below each cluster's peak (about 1e-55 of the
    # mixture's mass at 2 degrees).  Culling against the peak rather than
    # the hemisphere's largest value lost 0.4% of the BS total at 2 degrees.
    bs, ue = spectra_from_cdl(
        load_cdl_rows(bundled_cdl_path()), asd_deg=asd_deg, asa_deg=20.0
    )
    bs = rotate_spectrum(bs, rotation)
    culled = build_lattice(4.0, 4.0, bs)
    variances = build_variance_table(culled, build_lattice(1.0, 1.0, ue))
    assert variances.sum() == pytest.approx(1.0, rel=1e-12)
    monkeypatch.setattr(lat, "_CULL_EXPONENT", math.inf)
    full = build_lattice(4.0, 4.0, bs)
    assert culled.total_integral == pytest.approx(full.total_integral, rel=1e-9)
    np.testing.assert_allclose(
        culled.marginal_integrals,
        full.marginal_integrals,
        rtol=1e-9,
        atol=1e-9 * full.total_integral,
    )


CONCENTRATED = single_vmf(1.0, 0.3, 0.8)


def test_depth_cap_raises(monkeypatch):
    monkeypatch.setattr(lat, "_MAX_DEPTH", 0)
    with pytest.raises(QuadratureNotConverged, match="depth 0"):
        build_lattice(4.0, 4.0, CONCENTRATED)


def test_depth_cap_raises_when_one_of_several_spectra_never_converges(monkeypatch):
    monkeypatch.setattr(lat, "_MAX_DEPTH", 3)
    others = [ISO, rotate_spectrum(CDL_UE, 0.3), single_vmf(20.0, 0.3, 0.8)]
    assert len(build_lattices(4.0, 4.0, others)) == 3
    with pytest.raises(QuadratureNotConverged, match="depth 3"):
        build_lattices(4.0, 4.0, [*others[:2], CONCENTRATED, others[2]])


def test_depth_cap_exits_4_without_traceback(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(lat, "_MAX_DEPTH", 0)
    # One cluster above the horizon with a 1-degree departure spread.
    table = tmp_path / "one_cluster.csv"
    table.write_text(
        "cluster_id,power_db,aod_deg,zod_deg,aoa_deg,zoa_deg\n1,0,20,45,30,50\n"
    )
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "carrier_ghz": 3.5,
                "bs_aperture": 4.0,
                "ue_aperture": 1.0,
                "spacing_list": [0.5],
                "spectrum_spec": {
                    "kind": "cdl", "path": str(table), "asd_deg": 1.0, "asa_deg": 20.0,
                },
                "pattern_spec": {"kind": "uniform"},
                "efficiency_spec": {"kind": "relative_eta", "eta": 1.0},
                "snr_db": 0.0,
                "realizations": 1,
                "users": 1,
                "seed": 0,
            }
        )
    )
    assert main(["lattice", "--config", str(config)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cell quadrature not converged")
    assert "Traceback" not in captured.err
