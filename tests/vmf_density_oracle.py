"""One VMF component's density evaluated at angles.

The quadrature evaluates mixtures through ``AngularPowerSpectrum.
mixture_arrays``; this closed form of a single component is the tests'
check of the density itself (normalization, peak values, rotation).
"""

import math

import numpy as np

from holomimo import VmfComponent
from holomimo.spectrum import _ISOTROPIC_ALPHA


def vmf_density(component: VmfComponent, elevation, azimuth):
    """VMF probability density per steradian at (elevation, azimuth).

    Evaluates a/(4*pi*sinh(a)) * exp(a*(sin(t)sin(t0)cos(p-p0) + cos(t)cos(t0)))
    in a form stable for large concentrations:
    a*exp(a*(dot-1)) / (2*pi*(1-exp(-2a))).  Below concentration 1e-6 the
    isotropic limit 1/(4*pi) is returned.  Accepts scalars or arrays.
    """
    a = component.concentration
    elevation = np.asarray(elevation, dtype=float)
    azimuth = np.asarray(azimuth, dtype=float)
    if a < _ISOTROPIC_ALPHA:
        out = np.full(np.broadcast(elevation, azimuth).shape, 1.0 / (4.0 * math.pi))
        return out if out.ndim else float(out)
    dot = np.sin(elevation) * math.sin(component.mean_elevation) * np.cos(
        azimuth - component.mean_azimuth
    ) + np.cos(elevation) * math.cos(component.mean_elevation)
    out = a * np.exp(a * (dot - 1.0)) / (2.0 * math.pi * (1.0 - math.exp(-2.0 * a)))
    return out if out.ndim else float(out)
