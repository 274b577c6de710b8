"""One realization's Fourier coefficients from a generator of its own.

``holomimo.synthesis.draw_block`` re-keys one Philox stream through its
state for each realization and writes every draw into one buffer; this
form, which seeds a fresh ``Philox(key=...)`` per realization, is the
tests' oracle for it, and both must give the same bits.
"""

import numpy as np

from holomimo.synthesis import MASK64


def draw_coefficients(variances: np.ndarray, seed: int, realization_index: int):
    """Fourier coefficients C of one realization.

    Each coefficient is circularly-symmetric complex Gaussian with the
    tabulated variance (independent real/imaginary parts of variance
    sigma^2/2 each), generated from a Philox counter-based stream keyed by
    (seed, realization_index).
    """
    key = np.array(
        [seed & MASK64, realization_index & MASK64], dtype=np.uint64
    )
    rng = np.random.Generator(np.random.Philox(key=key))
    z = rng.standard_normal(size=(*variances.shape, 2))
    return (z[..., 0] + 1j * z[..., 1]) * np.sqrt(variances / 2.0)
