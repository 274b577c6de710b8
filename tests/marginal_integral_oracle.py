"""One harmonic's cell integral on its own.

``holomimo.lattice.build_lattice`` integrates every cell of an aperture in
one pass; this single-cell form of the same rule lets tests check cells one
at a time (symmetry, linearity in the spectrum, empty cells).
"""

import holomimo.lattice as lat
from holomimo import AngularPowerSpectrum


def marginal_integral(
    index,
    spectrum: AngularPowerSpectrum,
    aperture_x: float,
    aperture_y: float,
) -> float:
    """Spectrum-weighted solid angle captured by one harmonic's cell.

    Integrates A^2 / sqrt(1 - u^2 - v^2) over the harmonic's direction-cosine
    cell intersected with the open unit disk (upper hemisphere).  Returns 0
    for in-ellipse harmonics whose cell lies entirely outside the disk.
    """
    strips = lat._cell_strips(index, aperture_x, aperture_y)
    return float(lat._cell_integrals([spectrum], [strips])[0, 0])
