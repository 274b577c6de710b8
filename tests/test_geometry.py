"""Planar array geometry tests."""

import numpy as np
import pytest

from holomimo import build_planar_array
from holomimo.errors import NonIntegerGrid, NonPositiveInput


def test_element_counts_match_aperture_over_spacing():
    assert build_planar_array(4.0, 4.0, 0.5, 0.5).count == 64
    assert build_planar_array(1.0, 1.0, 0.125, 0.125).count == 64


def test_non_integer_grid_rejected():
    with pytest.raises(NonIntegerGrid):
        build_planar_array(1.0, 1.0, 0.3, 0.3)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_nonpositive_inputs_rejected(bad):
    with pytest.raises(NonPositiveInput):
        build_planar_array(bad, 1.0, 0.5, 0.5)
    with pytest.raises(NonPositiveInput):
        build_planar_array(1.0, 1.0, 0.5, bad)


def test_single_element_sits_at_origin():
    g = build_planar_array(0.5, 0.5, 0.5, 0.5)
    np.testing.assert_array_equal(g.elements[0], [0.0, 0.0, 0.0])


def test_first_element_of_centered_eight_by_eight():
    g = build_planar_array(4.0, 4.0, 0.5, 0.5)
    np.testing.assert_array_equal(g.elements[0], [-1.75, -1.75, 0.0])


def test_ordering_is_y_outer_x_inner():
    g = build_planar_array(1.0, 1.0, 0.5, 0.5)
    # second element advances along x, third wraps to the next y row
    assert g.elements[1][0] > g.elements[0][0]
    assert g.elements[1][1] == g.elements[0][1]
    assert g.elements[2][1] > g.elements[0][1]


@pytest.mark.parametrize(
    "aperture,spacing", [(4.0, 0.5), (1.0, 0.125), (2.0, 0.25), (0.5, 0.5)]
)
def test_centering_and_minimum_distance(aperture, spacing):
    g = build_planar_array(aperture, aperture, spacing, spacing)
    np.testing.assert_allclose(g.elements.sum(axis=0), 0.0, atol=1e-12)
    if g.count > 1:
        deltas = g.elements[None, :, :] - g.elements[:, None, :]
        dist = np.linalg.norm(deltas, axis=-1)
        dist[np.arange(g.count), np.arange(g.count)] = np.inf
        assert dist.min() == spacing


def test_rebuild_reproduces_coordinates_bitwise():
    g = build_planar_array(4.0, 4.0, 0.25, 0.25)
    h = build_planar_array(
        g.aperture_x, g.aperture_y, g.spacing_x, g.spacing_y
    )
    assert np.array_equal(g.elements, h.elements)
    assert g.elements.tobytes() == h.elements.tobytes()


def test_all_elements_planar():
    g = build_planar_array(2.0, 1.0, 0.25, 0.5)
    assert np.all(g.elements[:, 2] == 0.0)
    assert g.count_x == 8 and g.count_y == 2
