"""Direct evaluation of an angular power spectrum at angles.

The quadrature evaluates spectra at direction-cosine unit vectors inside
``holomimo.lattice``; this angle-based form is the tests' oracle for it.
"""

import numpy as np

from holomimo import AngularPowerSpectrum


def spectrum_value(spectrum: AngularPowerSpectrum, elevation, azimuth):
    """Spectrum value A^2 at (elevation, azimuth); vectorized over arrays.

    The mixture is evaluated in one batch: the exponent of every component
    is the 3-D dot product of the evaluation direction with the component's
    mean direction, so all components reduce to a single matrix product.
    """
    elevation = np.asarray(elevation, dtype=float)
    azimuth = np.asarray(azimuth, dtype=float)
    elevation, azimuth = np.broadcast_arrays(elevation, azimuth)
    means, alphas, coefs, constant = spectrum.mixture_arrays
    sin_t = np.sin(elevation)
    points = np.stack(
        [sin_t * np.cos(azimuth), sin_t * np.sin(azimuth), np.cos(elevation)],
        axis=-1,
    )
    out = np.full(elevation.shape, constant)
    if means.size:
        dots = points.reshape(-1, 3) @ means.T
        out = out + (np.exp(alphas * (dots - 1.0)) @ coefs).reshape(elevation.shape)
    return out if out.ndim else float(out)
