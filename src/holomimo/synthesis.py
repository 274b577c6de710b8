"""Channel synthesis: pattern-modified harmonic bases and Monte Carlo draws.

A synthesis plan freezes everything deterministic about an array pair: the
two pattern-modified harmonic bases and the per-element efficiency
amplitudes.  It takes the harmonics of each aperture, their angles and
the ones in the disk from the aperture's cached ``harmonic_geometry`` and
no spectrum, so one plan serves every user of a spacing; each basis is one
phase product over that geometry, bit for bit the columns of
``harmonic_vector``.  The separable variances sigma^2(l, m) belong to the
propagation one user sees; ``lattice.build_variance_table`` makes them
from the user's two lattices, and the samplers take them next to the plan.

Realizations are pure functions of (plan, variances, seed,
realization_index): every Fourier coefficient is drawn from a
counter-based random stream keyed by seed and realization index, so draws
are bitwise reproducible regardless of evaluation order or parallelism.
The coefficients (``draw_coefficients``) do not depend on the plan, so one
draw serves every spacing, and ``harmonic_channels`` maps a whole stack of
draws through a plan at once.  ``draw_block`` makes such a stack: one
Philox generator, re-keyed per draw, writes every draw of it into one
buffer, bit for bit the draws of ``draw_coefficients``.

``sample_channel`` returns the element-domain channel
H = s * (Gamma_R Psi_R) C (Gamma_S Psi_S)^H.  Only the harmonics whose
cells meet the visible unit disk (``lattice.disk_cells``) carry power: every
other row and column of C has variance 0 in every variance table, so it is
0 in every draw.  The plan keeps those harmonics of each end, S_R and S_S,
and the R factors of the thin QRs of the weighted bases restricted to them,
(Gamma_R Psi_R)[:, S_R] = Q_R R_R and (Gamma_S Psi_S)[:, S_S] = Q_S R_S.
``harmonic_channels(plan, draw_coefficients(variances, seed, index))`` is
the same draw as M = s * R_R C[S_R, S_S] R_S^H, at most (kept harmonics x
kept harmonics) whatever the element count: 1 x 45 for a 1-wavelength
receive and a 4-wavelength transmit aperture.  H = Q_R M Q_S^H with
isometries at both ends, so M has the nonzero singular values and the
broadcast sum capacity of H.  The kept harmonics depend on the apertures
alone, so channels of several users drawn on the same plan are in shared
transmit coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import CouplingProfile
from .geometry import ArrayGeometry
from .lattice import harmonic_geometry

__all__ = ["SynthesisPlan", "build_plan", "draw_coefficients", "draw_block",
           "sample_channel", "harmonic_channels", "MASK64"]

# Seeds and counters enter every random stream as unsigned 64-bit words.
MASK64 = (1 << 64) - 1


@dataclass(frozen=True, eq=False)
class SynthesisPlan:
    """Deterministic ingredients of the channel distribution for one array
    pair."""

    bs_basis: np.ndarray  # (N_S, n_S), transmit harmonics x element gains
    ue_basis: np.ndarray  # (N_R, n_R), receive harmonics x element gains
    bs_amplitudes: np.ndarray  # (N_S,) sqrt of element efficiencies
    ue_amplitudes: np.ndarray  # (N_R,)
    bs_support: np.ndarray  # (k_S,) indices of the transmit harmonics in the disk
    ue_support: np.ndarray  # (k_R,)
    bs_r: np.ndarray  # (min(N_S, k_S), k_S), R of the QR of (amplitudes * bs_basis)[:, bs_support]
    ue_r: np.ndarray  # (min(N_R, k_R), k_R)

    @property
    def bs_count(self) -> int:
        return self.bs_basis.shape[0]

    @property
    def ue_count(self) -> int:
        return self.ue_basis.shape[0]


def _modified_basis(
    geometry: ArrayGeometry, coupling: CouplingProfile, sign: int
) -> np.ndarray:
    """The aperture's harmonic vectors as columns, each weighted by the
    per-element pattern gain at that harmonic's propagation angles.

    Column j is ``harmonic_vector(index_j, geometry, sign)`` bit for bit:
    the phases of all harmonics are one outer product of the element
    coordinates with the aperture's cached indices (``harmonic_geometry``),
    taking the same operations in the same order, and the exp and the
    weighting run in place on one array."""
    harmonics = harmonic_geometry(geometry.aperture_x, geometry.aperture_y)
    phase = np.multiply(harmonics.ix, geometry.elements[:, 0, None])
    phase /= geometry.aperture_x
    term = np.multiply(harmonics.iy, geometry.elements[:, 1, None])
    term /= geometry.aperture_y
    phase += term
    del term  # each real temporary is freed before the next array: peak RSS
    phase *= 2.0 * math.pi * sign
    basis = np.multiply(1j, phase)
    del phase
    np.exp(basis, out=basis)
    basis /= math.sqrt(geometry.count)
    patterns = coupling.patterns
    theta, phi = harmonics.elevation, harmonics.azimuth
    if all(p is patterns[0] for p in patterns):
        basis *= patterns[0].gain(theta, phi)  # one row, broadcast to every element
    else:
        basis *= np.array([p.gain(theta, phi) for p in patterns])
    return basis


def build_plan(
    bs_geometry: ArrayGeometry,
    ue_geometry: ArrayGeometry,
    bs_coupling: CouplingProfile,
    ue_coupling: CouplingProfile,
) -> SynthesisPlan:
    """Assemble the bases, amplitudes, kept harmonics and R factors of an
    array pair."""
    bs_basis = _modified_basis(bs_geometry, bs_coupling, sign=-1)
    ue_basis = _modified_basis(ue_geometry, ue_coupling, sign=+1)
    bs_amplitudes = bs_coupling.amplitudes
    ue_amplitudes = ue_coupling.amplitudes
    bs_support = harmonic_geometry(bs_geometry.aperture_x, bs_geometry.aperture_y).support
    ue_support = harmonic_geometry(ue_geometry.aperture_x, ue_geometry.aperture_y).support
    return SynthesisPlan(
        bs_basis=bs_basis,
        ue_basis=ue_basis,
        bs_amplitudes=bs_amplitudes,
        ue_amplitudes=ue_amplitudes,
        bs_support=bs_support,
        ue_support=ue_support,
        bs_r=np.linalg.qr(bs_amplitudes[:, None] * bs_basis[:, bs_support], mode="r"),
        ue_r=np.linalg.qr(ue_amplitudes[:, None] * ue_basis[:, ue_support], mode="r"),
    )


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


def draw_block(tables, seed: int, keys) -> np.ndarray:
    """``draw_coefficients(table, seed, key)`` of each (table, key) pair, bit
    for bit, stacked into one (len(keys), n_R, n_S) array.

    One Philox stream is re-keyed through its ``state`` for each key, at
    counter 0 with an empty buffer as a fresh ``Philox(key=...)`` starts,
    and writes its normals into one buffer; a new generator per key would
    seed a throwaway SeedSequence from OS entropy.  Each distinct table (by
    identity) computes its sqrt(variances / 2) once and scales all its
    draws.  The tables share one shape.
    """
    normals = np.empty((len(keys), *tables[0].shape, 2))
    bits = np.random.Philox(key=0)
    generator = np.random.Generator(bits)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, np.uint64), "key": None},
             "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for row, key in zip(normals, keys):
        state["state"]["key"] = np.array([seed & MASK64, key & MASK64], dtype=np.uint64)
        bits.state = state
        generator.standard_normal(out=row)
    coefficients = normals[..., 0] + 1j * normals[..., 1]
    rows = {}
    for row, table in enumerate(tables):
        rows.setdefault(id(table), (table, []))[1].append(row)
    for table, members in rows.values():
        coefficients[members] *= np.sqrt(table / 2.0)
    return coefficients


def sample_channel(
    plan: SynthesisPlan, variances: np.ndarray, seed: int, realization_index: int
) -> np.ndarray:
    """Draw one channel realization in the element domain.

    H = s * (Gamma_R Psi_R) C (Gamma_S Psi_S)^H, receive x transmit
    elements, where s = sqrt(N_R*N_S) is the front factor of the series
    expansion and C has the (n_R, n_S) ``variances``.
    """
    coeffs = draw_coefficients(variances, seed, realization_index)
    return np.sqrt(plan.ue_count * plan.bs_count) * (
        (plan.ue_amplitudes[:, None] * plan.ue_basis)
        @ coeffs
        @ (plan.bs_basis.conj().T * plan.bs_amplitudes[None, :])
    )


def harmonic_channels(plan: SynthesisPlan, coefficients: np.ndarray) -> np.ndarray:
    """M = s * R_R C[S_R, S_S] R_S^H of a coefficient array C, or of each
    array of a stack (..., n_R, n_S): every matrix of the stack is the
    product it would be alone.  The dropped rows and columns of C are 0."""
    scale = np.sqrt(plan.ue_count * plan.bs_count)
    kept = coefficients[..., plan.ue_support[:, None], plan.bs_support]
    return scale * (plan.ue_r @ kept @ plan.bs_r.conj().T)
