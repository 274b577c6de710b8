"""Uniform planar array geometry.

All lengths are expressed in carrier wavelengths; conversion to meters only
ever happens in the pathloss model, so the geometry layer never needs the
carrier frequency.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NonIntegerGrid, NonPositiveInput

__all__ = ["ArrayGeometry", "build_planar_array", "grid_count"]

_GRID_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class ArrayGeometry:
    """A uniform planar array centered at the origin in its local z=0 plane.

    Element ordering is row-major with y as the outer index and x as the
    inner one; every matrix in the package uses this vectorization.
    """

    aperture_x: float
    aperture_y: float
    spacing_x: float
    spacing_y: float
    count_x: int
    count_y: int
    elements: np.ndarray = field(repr=False)  # (N, 3) float64

    @property
    def count(self) -> int:
        return self.count_x * self.count_y


def grid_count(aperture: float, spacing: float) -> int:
    """Element count aperture/spacing along one axis; NonIntegerGrid unless
    it is a positive integer within relative tolerance 1e-9 that a numpy
    array index can hold."""
    ratio = aperture / spacing
    if not ratio <= np.iinfo(np.intp).max:  # also an infinite or NaN ratio
        raise NonIntegerGrid(
            f"spacing {spacing} divides aperture {aperture} into {ratio:g} "
            f"elements, more than an array can hold"
        )
    n = round(ratio)
    if n < 1 or abs(n * spacing - aperture) > _GRID_RTOL * aperture:
        raise NonIntegerGrid(
            f"spacing {spacing} does not divide aperture {aperture} into an "
            f"integer number of elements"
        )
    return n


def build_planar_array(
    aperture_x: float,
    aperture_y: float,
    spacing_x: float,
    spacing_y: float,
) -> ArrayGeometry:
    """Build a centered uniform planar array.

    The element count per axis is aperture/spacing, which must be an integer
    within relative tolerance 1e-9.  The grid is anchored so that the mean
    element position is exactly the origin, which keeps symmetry properties
    exact in floating point.
    """
    for name, value in (
        ("aperture_x", aperture_x),
        ("aperture_y", aperture_y),
        ("spacing_x", spacing_x),
        ("spacing_y", spacing_y),
    ):
        if not (value > 0.0 and np.isfinite(value)):
            raise NonPositiveInput(f"{name} must be strictly positive, got {value}")

    nx = grid_count(aperture_x, spacing_x)
    ny = grid_count(aperture_y, spacing_y)

    xs = (np.arange(nx) - (nx - 1) / 2.0) * spacing_x
    ys = (np.arange(ny) - (ny - 1) / 2.0) * spacing_y
    gy, gx = np.meshgrid(ys, xs, indexing="ij")  # y-outer, x-inner
    elements = np.column_stack(
        [gx.ravel(), gy.ravel(), np.zeros(nx * ny)]
    )
    return ArrayGeometry(
        aperture_x=aperture_x,
        aperture_y=aperture_y,
        spacing_x=spacing_x,
        spacing_y=spacing_y,
        count_x=nx,
        count_y=ny,
        elements=elements,
    )
