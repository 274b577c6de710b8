"""Channel synthesis: pattern-modified harmonic bases and Monte Carlo draws.

A synthesis plan freezes everything deterministic about an array pair: the
two arrays and their coupling (element patterns and efficiencies), the
harmonics each end keeps and the R factors of those harmonics.  It takes
the harmonics of each aperture, their angles and the ones in the disk from
the aperture's cached ``harmonic_geometry`` and no spectrum, so one plan
serves every user of a spacing.  The pattern-modified element-domain bases
and the efficiency amplitudes are made on first access under the plan's
``bs_basis``/``ue_basis`` and ``bs_amplitudes``/``ue_amplitudes``; only
``sample_channel`` (``holo synth``) reads them.  Each basis is one phase
product over the harmonic geometry, bit for bit the columns of
``harmonic_vector``.  The separable variances sigma^2(l, m) belong to the
propagation one user sees; ``lattice.build_variance_table`` makes them
from the user's two lattices, and the samplers take them next to the plan.

Realizations are pure functions of (plan, variances, seed,
realization_index): every Fourier coefficient is drawn from a
counter-based random stream keyed by seed and realization index, so draws
are bitwise reproducible regardless of evaluation order or parallelism.
The coefficients do not depend on the plan, so one draw serves every
spacing, and ``harmonic_channels`` maps a whole stack of draws through a
plan at once.  ``draw_block`` makes such a stack: one Philox generator,
re-keyed per draw, writes every draw of it into one buffer.

``sample_channel`` returns the element-domain channel
H = s * (Gamma_R Psi_R) C (Gamma_S Psi_S)^H.  Only the harmonics whose
cells meet the visible unit disk (the ``support`` of ``harmonic_geometry``)
carry power: every other row and column of C has variance 0 in every
variance table, so it is 0 in every draw.  The plan keeps those harmonics
of each end, S_R and S_S, and the R factors of the thin QRs of the
weighted bases restricted to them, (Gamma_R Psi_R)[:, S_R] = Q_R R_R and
(Gamma_S Psi_S)[:, S_S] = Q_S R_S.  ``harmonic_channels(plan, C)`` is the
same draw as M = s * R_R C[S_R, S_S] R_S^H, at most (kept harmonics x
kept harmonics) whatever the element count: 1 x 45 for a 1-wavelength
receive and a 4-wavelength transmit aperture.  H = Q_R M Q_S^H with
isometries at both ends, so M has the nonzero singular values and the
broadcast sum capacity of H.  The kept harmonics depend on the apertures
alone, so channels of several users drawn on the same plan are in shared
transmit coordinates.

An end whose elements share one pattern object and one efficiency (every
preset: ``relative_eta`` or ``hannan`` efficiencies with a uniform, dipole
or one-element file pattern) gets its R factor from per-axis factors.  Its
basis is a * (Phi_y kron Phi_x) diag(g) / sqrt(N), with the per-axis
phasors Phi_x and Phi_y of the uniform grid (elements y-outer, x-inner), so
the QRs Phi_x = Q_x R_x and Phi_y = Q_y R_y leave one QR of
a * (R_y kron R_x)[:, S] diag(g) / sqrt(N): at most 81 x 45 for a
4-wavelength aperture at any spacing, where the weighted basis is 1024 x 45
at 1/8 wavelength.  These small QRs give the same bits at one and two BLAS
threads, where the 1024 x 45 one does not.  An end with S-parameter
efficiencies or a pattern file of several elements takes the QR of its
weighted element-domain basis, which is built for it and not kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coupling import CouplingProfile
from .geometry import ArrayGeometry
from .lattice import harmonic_geometry

__all__ = ["SynthesisPlan", "build_plan", "draw_block", "sample_channel",
           "harmonic_channels", "MASK64"]

# Seeds and counters enter every random stream as unsigned 64-bit words.
MASK64 = (1 << 64) - 1


@dataclass(frozen=True, eq=False)
class SynthesisPlan:
    """Deterministic ingredients of the channel distribution for one array
    pair.

    The element-domain bases and amplitudes are made on first access: only
    ``sample_channel`` reads them, and a sweep never does."""

    bs_geometry: ArrayGeometry
    ue_geometry: ArrayGeometry
    bs_coupling: CouplingProfile
    ue_coupling: CouplingProfile
    bs_support: np.ndarray  # (k_S,) indices of the transmit harmonics in the disk
    ue_support: np.ndarray  # (k_R,)
    bs_r: np.ndarray  # (<= k_S, k_S), R of the QR of (bs_amplitudes * bs_basis)[:, bs_support]
    ue_r: np.ndarray  # (<= k_R, k_R)

    @cached_property
    def bs_basis(self) -> np.ndarray:
        """(N_S, n_S), transmit harmonics x element gains."""
        return _modified_basis(self.bs_geometry, self.bs_coupling, sign=-1)

    @cached_property
    def ue_basis(self) -> np.ndarray:
        """(N_R, n_R), receive harmonics x element gains."""
        return _modified_basis(self.ue_geometry, self.ue_coupling, sign=+1)

    @property
    def bs_amplitudes(self) -> np.ndarray:
        """(N_S,) sqrt of the transmit element efficiencies."""
        return self.bs_coupling.amplitudes

    @property
    def ue_amplitudes(self) -> np.ndarray:
        """(N_R,) sqrt of the receive element efficiencies."""
        return self.ue_coupling.amplitudes

    @property
    def bs_count(self) -> int:
        return self.bs_geometry.count

    @property
    def ue_count(self) -> int:
        return self.ue_geometry.count


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


def _axis_r(coordinates: np.ndarray, aperture: float, reach: int, sign: int) -> np.ndarray:
    """R of the thin QR of one axis's phasors exp(2 pi j sign k c / L), a
    row per coordinate c and a column per harmonic k = -reach..reach."""
    phase = np.multiply.outer(coordinates, np.arange(-reach, reach + 1.0))
    phase *= 2.0 * math.pi * sign / aperture
    return np.linalg.qr(np.exp(1j * phase), mode="r")


def _end_r(geometry: ArrayGeometry, coupling: CouplingProfile, sign: int,
           support: np.ndarray) -> np.ndarray:
    """R of the thin QR of one end's weighted basis restricted to ``support``:
    from the per-axis factors R_x and R_y when every element has the same
    pattern object and efficiency, at most (2K_y + 1)(2K_x + 1) rows
    whatever the element count; else from the element-domain basis."""
    patterns, efficiencies = coupling.patterns, coupling.efficiencies
    if not (all(p is patterns[0] for p in patterns)
            and (efficiencies == efficiencies[0]).all()):
        basis = _modified_basis(geometry, coupling, sign)
        return np.linalg.qr(coupling.amplitudes[:, None] * basis[:, support], mode="r")
    harmonics = harmonic_geometry(geometry.aperture_x, geometry.aperture_y)
    reach_x, reach_y = int(harmonics.ix.max()), int(harmonics.iy.max())
    r_x = _axis_r(geometry.elements[:geometry.count_x, 0], geometry.aperture_x, reach_x, sign)
    r_y = _axis_r(geometry.elements[::geometry.count_x, 1], geometry.aperture_y, reach_y, sign)
    columns_x = (harmonics.ix[support] + reach_x).astype(np.intp)
    columns_y = (harmonics.iy[support] + reach_y).astype(np.intp)
    factor = (r_y[:, None, columns_y] * r_x[None, :, columns_x]).reshape(-1, len(support))
    gains = patterns[0].gain(harmonics.elevation[support], harmonics.azimuth[support])
    factor *= math.sqrt(efficiencies[0]) / math.sqrt(geometry.count) * gains
    return np.linalg.qr(factor, mode="r")


def build_plan(
    bs_geometry: ArrayGeometry,
    ue_geometry: ArrayGeometry,
    bs_coupling: CouplingProfile,
    ue_coupling: CouplingProfile,
) -> SynthesisPlan:
    """Assemble the kept harmonics and R factors of an array pair."""
    bs_support = harmonic_geometry(bs_geometry.aperture_x, bs_geometry.aperture_y).support
    ue_support = harmonic_geometry(ue_geometry.aperture_x, ue_geometry.aperture_y).support
    return SynthesisPlan(
        bs_geometry=bs_geometry,
        ue_geometry=ue_geometry,
        bs_coupling=bs_coupling,
        ue_coupling=ue_coupling,
        bs_support=bs_support,
        ue_support=ue_support,
        bs_r=_end_r(bs_geometry, bs_coupling, -1, bs_support),
        ue_r=_end_r(ue_geometry, ue_coupling, +1, ue_support),
    )


def draw_block(tables, seed: int, keys) -> np.ndarray:
    """Fourier coefficients C of each (table, key) pair, stacked into one
    (len(keys), n_R, n_S) array.

    Each coefficient is circularly-symmetric complex Gaussian with the
    tabulated variance (independent real/imaginary parts of variance
    sigma^2/2 each), generated from a Philox counter-based stream keyed by
    (seed, key), the realization index.  One Philox stream is re-keyed
    through its ``state`` for each key, at counter 0 with an empty buffer
    as a fresh ``Philox(key=...)`` starts, and writes its normals into one
    buffer; a new generator per key would seed a throwaway SeedSequence
    from OS entropy.  Each distinct table (by identity) computes its
    sqrt(variances / 2) once and scales all its draws.  The tables share
    one shape.
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
    coeffs = draw_block([variances], seed, [realization_index])[0]
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
