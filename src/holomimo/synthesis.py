"""Channel synthesis: pattern-modified harmonic bases and Monte Carlo draws.

A synthesis plan freezes everything deterministic about a link: the two
pattern-modified harmonic bases, the normalized variance table, and the
per-element efficiency amplitudes.  Realizations are then pure functions of
(plan, seed, realization_index): every Fourier coefficient is drawn from a
counter-based random stream keyed by seed and realization index, so draws
are bitwise reproducible regardless of evaluation order or parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import CouplingProfile, pattern_gain
from .geometry import ArrayGeometry
from .lattice import (
    SpectralLattice,
    build_lattice,
    build_variance_table,
    harmonic_angles,
    harmonic_vector,
)

__all__ = ["SynthesisPlan", "ChannelRealization", "build_plan", "sample_channel",
           "expected_frobenius", "MASK64"]

# Seeds and counters enter every random stream as unsigned 64-bit words.
MASK64 = (1 << 64) - 1


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One sampled channel matrix (receive x transmit elements)."""

    matrix: np.ndarray
    realization_index: int
    seed: int


@dataclass(frozen=True, eq=False)
class SynthesisPlan:
    """Deterministic ingredients of the channel distribution for one link."""

    bs_basis: np.ndarray  # (N_S, n_S), transmit harmonics x element gains
    ue_basis: np.ndarray  # (N_R, n_R), receive harmonics x element gains
    variance_table: VarianceTable
    bs_amplitudes: np.ndarray  # (N_S,) sqrt of element efficiencies
    ue_amplitudes: np.ndarray  # (N_R,)

    @property
    def bs_count(self) -> int:
        return self.bs_basis.shape[0]

    @property
    def ue_count(self) -> int:
        return self.ue_basis.shape[0]


def _modified_basis(
    geometry: ArrayGeometry,
    lattice: SpectralLattice,
    coupling: CouplingProfile,
    sign: int,
) -> np.ndarray:
    """Stack harmonic vectors, each weighted by the per-element pattern gain
    evaluated at that harmonic's propagation angles."""
    n = geometry.count
    columns = np.empty((n, lattice.cardinality), dtype=complex)
    shared = all(p is coupling.patterns[0] for p in coupling.patterns)
    for j, index in enumerate(lattice.indices):
        vec = harmonic_vector(index, geometry, sign)
        theta, phi = harmonic_angles(index, lattice.aperture_x, lattice.aperture_y)
        if shared:
            columns[:, j] = vec * pattern_gain(coupling.patterns[0], 0, theta, phi)
        else:
            gains = np.array(
                [pattern_gain(coupling.patterns, p, theta, phi) for p in range(n)]
            )
            columns[:, j] = vec * gains
    return columns


def build_plan(
    bs_geometry: ArrayGeometry,
    ue_geometry: ArrayGeometry,
    bs_spectrum,
    ue_spectrum,
    bs_coupling: CouplingProfile,
    ue_coupling: CouplingProfile,
    bs_lattice: SpectralLattice | None = None,
    ue_lattice: SpectralLattice | None = None,
) -> SynthesisPlan:
    """Assemble bases, variance table, and amplitudes into a sampling plan.

    The spectral lattices (which depend only on aperture and spectrum, not
    on element spacing) are computed from the spectra unless precomputed
    ones are passed in, which lets spacing sweeps reuse them.
    """
    if bs_lattice is None:
        bs_lattice = build_lattice(
            bs_geometry.aperture_x, bs_geometry.aperture_y, bs_spectrum
        )
    if ue_lattice is None:
        ue_lattice = build_lattice(
            ue_geometry.aperture_x, ue_geometry.aperture_y, ue_spectrum
        )
    bs_basis = _modified_basis(bs_geometry, bs_lattice, bs_coupling, sign=-1)
    ue_basis = _modified_basis(ue_geometry, ue_lattice, ue_coupling, sign=+1)
    table = build_variance_table(bs_lattice, ue_lattice)
    return SynthesisPlan(
        bs_basis=bs_basis,
        ue_basis=ue_basis,
        variance_table=table,
        bs_amplitudes=bs_coupling.amplitudes,
        ue_amplitudes=ue_coupling.amplitudes,
    )


def sample_channel(
    plan: SynthesisPlan, seed: int, realization_index: int
) -> ChannelRealization:
    """Draw one channel realization.

    Each Fourier coefficient is circularly-symmetric complex Gaussian with
    the tabulated variance (independent real/imaginary parts of variance
    sigma^2/2 each), generated from a Philox counter-based stream keyed by
    (seed, realization_index).  The sqrt(N_R*N_S) front factor of the series
    expansion is applied explicitly.
    """
    key = np.array(
        [seed & MASK64, realization_index & MASK64], dtype=np.uint64
    )
    rng = np.random.Generator(np.random.Philox(key=key))
    variances = plan.variance_table.variances()
    z = rng.standard_normal(size=(*variances.shape, 2))
    coeffs = (z[..., 0] + 1j * z[..., 1]) * np.sqrt(variances / 2.0)
    scale = np.sqrt(plan.ue_count * plan.bs_count)
    matrix = scale * (
        (plan.ue_amplitudes[:, None] * plan.ue_basis)
        @ coeffs
        @ (plan.bs_basis.conj().T * plan.bs_amplitudes[None, :])
    )
    return ChannelRealization(
        matrix=matrix, realization_index=realization_index, seed=seed
    )


def expected_frobenius(plan: SynthesisPlan) -> float:
    """Closed-form expected squared Frobenius norm of a realization.

    E||H||^2 = N_R*N_S * sum over harmonic pairs of sigma^2(l, m) *
    ||Gamma_R psi_R(l)||^2 * ||Gamma_S psi_S(m)||^2; serves as the moment
    oracle for the sampler.
    """
    ue_norms = np.sum(
        np.abs(plan.ue_amplitudes[:, None] * plan.ue_basis) ** 2, axis=0
    )
    bs_norms = np.sum(
        np.abs(plan.bs_amplitudes[:, None] * plan.bs_basis) ** 2, axis=0
    )
    variances = plan.variance_table.variances()
    return float(plan.ue_count * plan.bs_count * (ue_norms @ variances @ bs_norms))
