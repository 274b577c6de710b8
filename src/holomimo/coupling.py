"""Mutual-coupling non-idealities: element patterns and antenna efficiency.

Dense element packing distorts each element's embedded radiation pattern and
lowers its efficiency.  Patterns are either ideal (uniform), an analytic
broadside dipole, or gridded complex gains loaded from files produced by
electromagnetic solvers.  Efficiencies come from S-parameter row power sums,
from the spacing-limited bound of a dense array, or from a relative level
against the half-wavelength reference.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyFile,
    MalformedPatternFile,
    MalformedSParameterFile,
    NonPassive,
    NonPositiveInput,
)
from .geometry import ArrayGeometry

__all__ = [
    "ElementPattern",
    "SParameterMatrix",
    "CouplingProfile",
    "RelativeEta",
    "HannanLimited",
    "FromSParams",
    "load_pattern_file",
    "load_sparams_file",
    "efficiency_from_sparams",
    "hannan_limit",
    "build_coupling_profile",
    "HALF_WAVE_EFFICIENCY",
]

# Spacing-limited efficiency of the half-wavelength reference array, pi/4.
HALF_WAVE_EFFICIENCY = math.pi / 4.0

_DIPOLE_SCALE = math.sqrt(1.5)  # power-normalizes c*sin(theta) over the sphere

_PASSIVITY_TOL = 1e-9

_PATTERN_COLUMNS = ["element_index", "theta_deg", "phi_deg", "re", "im"]
_SPARAM_COLUMNS = ["row", "col", "re", "im"]


@dataclass(frozen=True, eq=False)
class ElementPattern:
    """Normalized embedded radiation pattern of one antenna element.

    ``kind`` is "uniform" (gain 1 everywhere), "dipole" (sqrt(3/2)*sin(theta))
    or "gridded" (bilinear interpolation of complex samples, zero outside the
    gridded elevation coverage, wrapped in azimuth).  Gridded gains are
    power-normalized so that the mean of |F|^2 over the sphere is 1.
    """

    kind: str
    elevations_deg: np.ndarray | None = None  # strictly increasing
    azimuths_deg: np.ndarray | None = None  # strictly increasing, in [-180, 180)
    gains: np.ndarray | None = None  # complex, (n_theta, n_phi)

    @staticmethod
    def uniform() -> "ElementPattern":
        return ElementPattern(kind="uniform")

    @staticmethod
    def dipole() -> "ElementPattern":
        return ElementPattern(kind="dipole")

    def gain(self, elevation, azimuth):
        """Complex gain at (elevation, azimuth) in radians; vectorized."""
        if self.kind == "uniform":
            out = np.ones(np.broadcast(np.asarray(elevation), np.asarray(azimuth)).shape)
            return out if out.ndim else 1.0
        if self.kind == "dipole":
            out = _DIPOLE_SCALE * np.sin(np.asarray(elevation, dtype=float))
            return out if out.ndim else float(out)
        return self._interpolate(elevation, azimuth)

    def _interpolate(self, elevation, azimuth):
        theta = np.degrees(np.asarray(elevation, dtype=float))
        phi = np.degrees(np.asarray(azimuth, dtype=float))
        phi = np.mod(phi + 180.0, 360.0) - 180.0
        th_grid = self.elevations_deg
        az_ext, gains_ext = self._wrapped_grid
        scalar = theta.ndim == 0 and phi.ndim == 0
        theta, phi = np.atleast_1d(theta), np.atleast_1d(phi)
        theta, phi = np.broadcast_arrays(theta, phi)

        out = np.zeros(theta.shape, dtype=complex)
        inside = (theta >= th_grid[0] - 1e-12) & (theta <= th_grid[-1] + 1e-12)
        if np.any(inside):
            th = np.clip(theta[inside], th_grid[0], th_grid[-1])
            ph = phi[inside].copy()
            ph[ph < az_ext[0]] += 360.0
            ph = np.clip(ph, az_ext[0], az_ext[-1])
            it = np.clip(np.searchsorted(th_grid, th, side="right") - 1, 0, len(th_grid) - 2)
            ip = np.clip(np.searchsorted(az_ext, ph, side="right") - 1, 0, len(az_ext) - 2)
            ft = (th - th_grid[it]) / (th_grid[it + 1] - th_grid[it])
            fp = (ph - az_ext[ip]) / (az_ext[ip + 1] - az_ext[ip])
            g00 = gains_ext[it, ip]
            g01 = gains_ext[it, ip + 1]
            g10 = gains_ext[it + 1, ip]
            g11 = gains_ext[it + 1, ip + 1]
            out[inside] = (
                g00 * (1 - ft) * (1 - fp)
                + g01 * (1 - ft) * fp
                + g10 * ft * (1 - fp)
                + g11 * ft * fp
            )
        return complex(out[0]) if scalar else out

    @cached_property
    def _wrapped_grid(self):
        # Append the first azimuth column shifted by +360 so interpolation
        # across the -180/180 seam uses the wraparound cell.
        az = self.azimuths_deg
        az_ext = np.concatenate([az, [az[0] + 360.0]])
        gains_ext = np.concatenate([self.gains, self.gains[:, :1]], axis=1)
        return az_ext, gains_ext

    def sphere_power(self, n_theta: int = 128, n_phi: int = 256) -> float:
        """Mean of |F|^2 over the full sphere.

        Gauss-Legendre in elevation, midpoint in the periodic azimuth.
        """
        x, w = np.polynomial.legendre.leggauss(n_theta)
        theta = 0.5 * math.pi * (x + 1.0)
        phi = -math.pi + (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        values = np.abs(self.gain(tt, pp)) ** 2 * np.sin(tt)
        integral = np.einsum(
            "i,ij->", w * 0.5 * math.pi, values
        ) * (2.0 * math.pi / n_phi)
        return float(integral / (4.0 * math.pi))


def _read_rows(path, columns, file_kind_error):
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise EmptyFile(f"{path}: file is empty") from None
            if [h.strip() for h in header] != columns:
                raise file_kind_error(f"{path}: expected header {','.join(columns)}")
            rows = []
            for lineno, rec in enumerate(reader, start=2):
                if not rec:
                    continue
                if len(rec) != len(columns):
                    raise file_kind_error(f"{path}:{lineno}: wrong column count")
                try:
                    rows.append([float(x) for x in rec])
                except ValueError as exc:
                    raise file_kind_error(f"{path}:{lineno}: {exc}") from exc
    except OSError as exc:
        raise file_kind_error(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise EmptyFile(f"{path}: no data rows")
    return rows


def _index(path, value: float, what: str, file_kind_error) -> int:
    """A file's integer index field, rejected unless a nonnegative integer."""
    if not (value >= 0 and value.is_integer()):
        raise file_kind_error(
            f"{path}: {what} index {value!r} is not a nonnegative integer"
        )
    return int(value)


def load_pattern_file(path) -> list[ElementPattern]:
    """Load per-element gridded patterns from a CSV file.

    Header: ``element_index,theta_deg,phi_deg,re,im``.  Element indices run
    0..N-1 with none missing, and each element must provide a full cartesian
    (theta, phi) grid of finite values, every point once.  Every pattern is
    power-renormalized on load.
    """
    rows = _read_rows(path, _PATTERN_COLUMNS, MalformedPatternFile)
    by_element: dict[int, dict[tuple[float, float], complex]] = {}
    for rec in rows:
        idx = _index(path, rec[0], "element", MalformedPatternFile)
        if not all(math.isfinite(x) for x in rec[1:]):
            raise MalformedPatternFile(f"{path}: element {idx} has a non-finite value")
        samples = by_element.setdefault(idx, {})
        if (rec[1], rec[2]) in samples:
            raise MalformedPatternFile(
                f"{path}: element {idx} repeats grid point "
                f"theta={rec[1]:g} phi={rec[2]:g} deg"
            )
        samples[(rec[1], rec[2])] = complex(rec[3], rec[4])
    if sorted(by_element) != list(range(len(by_element))):
        raise MalformedPatternFile(
            f"{path}: element indices must run 0..{len(by_element) - 1}, "
            f"got {sorted(by_element)}"
        )

    patterns = []
    for idx in sorted(by_element):
        samples = by_element[idx]
        thetas = np.array(sorted({t for t, _ in samples}))
        phis = np.array(sorted({p for _, p in samples}))
        if len(samples) != len(thetas) * len(phis):
            raise MalformedPatternFile(
                f"{path}: element {idx} grid is not a full cartesian product"
            )
        if np.any(np.diff(thetas) <= 0) or np.any(np.diff(phis) <= 0):
            raise MalformedPatternFile(f"{path}: element {idx} grid not monotone")
        if thetas[0] > 1e-9 or thetas[-1] < 90.0 - 1e-9:
            raise MalformedPatternFile(
                f"{path}: element {idx} must cover elevations [0, 90] deg"
            )
        if phis[0] < -180.0 or phis[-1] >= 180.0:
            raise MalformedPatternFile(
                f"{path}: element {idx} azimuths must lie in [-180, 180) deg"
            )
        gains = np.empty((len(thetas), len(phis)), dtype=complex)
        for (t, p), g in samples.items():
            gains[np.searchsorted(thetas, t), np.searchsorted(phis, p)] = g
        pattern = ElementPattern(
            kind="gridded", elevations_deg=thetas, azimuths_deg=phis, gains=gains
        )
        power = pattern.sphere_power()
        if power <= 0.0:
            raise MalformedPatternFile(f"{path}: element {idx} pattern has zero power")
        patterns.append(
            ElementPattern(
                kind="gridded",
                elevations_deg=thetas,
                azimuths_deg=phis,
                gains=gains / math.sqrt(power),
            )
        )
    return patterns


@dataclass(frozen=True, eq=False)
class SParameterMatrix:
    """Scattering matrix of an array's ports (dimensionless, linear)."""

    entries: np.ndarray  # (N, N) complex

    @property
    def order(self) -> int:
        return self.entries.shape[0]

    def row_power_sums(self) -> np.ndarray:
        return np.sum(np.abs(self.entries) ** 2, axis=1)


def load_sparams_file(path) -> SParameterMatrix:
    """Load a full S-parameter matrix from CSV ``row,col,re,im``."""
    rows = _read_rows(path, _SPARAM_COLUMNS, MalformedSParameterFile)
    values: dict[tuple[int, int], complex] = {}
    for rec in rows:
        key = (
            _index(path, rec[0], "row", MalformedSParameterFile),
            _index(path, rec[1], "column", MalformedSParameterFile),
        )
        if key in values:
            raise MalformedSParameterFile(f"{path}: duplicate entry {key}")
        if not (math.isfinite(rec[2]) and math.isfinite(rec[3])):
            raise MalformedSParameterFile(f"{path}: non-finite entry {key}")
        values[key] = complex(rec[2], rec[3])
    order = max(max(key) for key in values) + 1
    if len(values) != order * order:
        raise MalformedSParameterFile(f"{path}: missing entries for order {order}")
    entries = np.empty((order, order), dtype=complex)
    for (row, col), value in values.items():
        entries[row, col] = value
    return SParameterMatrix(entries=entries)


def efficiency_from_sparams(sparams: SParameterMatrix) -> np.ndarray:
    """Per-element efficiency 1 - sum_q |S_pq|^2 from reflected+coupled power."""
    sums = sparams.row_power_sums()
    if np.any(sums > 1.0 + _PASSIVITY_TOL):
        worst = int(np.argmax(sums))
        raise NonPassive(
            f"row {worst} power sum {sums[worst]:.6f} exceeds 1; not passive"
        )
    return np.clip(1.0 - sums, 0.0, 1.0)


def hannan_limit(spacing_x: float, spacing_y: float) -> float:
    """Spacing-limited element efficiency pi*dx*dy (spacings in wavelengths).

    The linear-in-area law only applies in the dense regime; the value is
    clamped at 1 for spacings beyond lambda/sqrt(pi).
    """
    if spacing_x <= 0 or spacing_y <= 0:
        raise NonPositiveInput("spacings must be strictly positive")
    return min(1.0, math.pi * spacing_x * spacing_y)


@dataclass(frozen=True)
class RelativeEta:
    """Efficiency at a fixed fraction of the half-wavelength reference."""

    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise NonPositiveInput(f"relative efficiency must be in [0, 1], got {self.eta}")


@dataclass(frozen=True)
class HannanLimited:
    """Efficiency pinned to the spacing-limited bound of the geometry."""


@dataclass(frozen=True)
class FromSParams:
    """Efficiency estimated from a measured/simulated S-parameter matrix."""

    sparams: SParameterMatrix


@dataclass(frozen=True, eq=False)
class CouplingProfile:
    """Per-element patterns plus efficiencies for one array."""

    patterns: tuple[ElementPattern, ...]
    efficiencies: np.ndarray  # in [0, 1]

    def __post_init__(self):
        if np.any(self.efficiencies < 0) or np.any(self.efficiencies > 1):
            raise NonPositiveInput("efficiencies must lie in [0, 1]")
        if len(self.patterns) != len(self.efficiencies):
            raise DimensionMismatch("patterns and efficiencies length mismatch")

    @property
    def amplitudes(self) -> np.ndarray:
        """Per-element amplitude weights sqrt(e_p)."""
        return np.sqrt(self.efficiencies)


def build_coupling_profile(
    geometry: ArrayGeometry, pattern_source, efficiency_mode
) -> CouplingProfile:
    """Assemble the coupling profile of one array.

    ``pattern_source`` is a shared ElementPattern or a per-element list;
    ``efficiency_mode`` is RelativeEta, HannanLimited, or FromSParams.
    """
    n = geometry.count
    if isinstance(pattern_source, ElementPattern):
        patterns = (pattern_source,) * n
    else:
        patterns = tuple(pattern_source)
        if len(patterns) != n:
            raise DimensionMismatch(
                f"{len(patterns)} patterns for {n} elements"
            )

    if isinstance(efficiency_mode, RelativeEta):
        e = np.full(n, efficiency_mode.eta * HALF_WAVE_EFFICIENCY)
    elif isinstance(efficiency_mode, HannanLimited):
        e = np.full(n, hannan_limit(geometry.spacing_x, geometry.spacing_y))
    elif isinstance(efficiency_mode, FromSParams):
        if efficiency_mode.sparams.order != n:
            raise DimensionMismatch(
                f"S-parameter order {efficiency_mode.sparams.order} != {n} elements"
            )
        e = efficiency_from_sparams(efficiency_mode.sparams)
    else:
        raise TypeError(f"unknown efficiency mode {efficiency_mode!r}")

    return CouplingProfile(patterns=patterns, efficiencies=e)
