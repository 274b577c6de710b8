"""Angular power spectra: isotropic fields and von Mises-Fisher mixtures.

A spectrum models the distribution of multipath power over propagation
directions at one link end.  Non-isotropic spectra are mixtures of 3-D VMF
densities whose mean directions come from standardized cluster tables
(3GPP TR 38.901 CDL format) and whose shared concentration is derived from
the table-level angular spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import EmptyTable, MalformedTableFile, SpreadOutOfRange
from .files import read_json, read_table

__all__ = [
    "VmfComponent",
    "AngularPowerSpectrum",
    "CdlClusterRow",
    "concentration_from_spread",
    "spectra_from_cdl",
    "load_cdl_rows",
    "load_cdl_table",
    "rotate_spectrum",
]

# Below this concentration the VMF density is numerically indistinguishable
# from the isotropic limit 1/(4*pi).
_ISOTROPIC_ALPHA = 1e-6

_SPREAD_LIMIT_DEG = 21.0

_TABLE_COLUMNS = ["cluster_id", "power_db", "aod_deg", "zod_deg", "aoa_deg", "zoa_deg"]


def _wrap_azimuth(phi) -> float:
    """Wrap an angle to (-pi, pi], in float arithmetic: bitwise NumPy's
    ``np.pi - np.mod(-phi + np.pi, 2 * np.pi)`` without its call overhead."""
    return math.pi - ((-float(phi) + math.pi) % (2.0 * math.pi))


@dataclass(frozen=True)
class VmfComponent:
    """One von Mises-Fisher mixture component on the unit sphere."""

    weight: float
    mean_azimuth: float  # radians, (-pi, pi]
    mean_elevation: float  # radians, [0, pi]
    concentration: float  # >= 0

    def __post_init__(self):
        if self.weight <= 0.0:
            raise ValueError(f"component weight must be positive, got {self.weight}")
        if self.concentration < 0.0:
            raise ValueError(
                f"concentration must be nonnegative, got {self.concentration}"
            )
        if not 0.0 <= self.mean_elevation <= math.pi:
            raise ValueError(
                f"mean elevation must lie in [0, pi], got {self.mean_elevation}"
            )
        object.__setattr__(
            self, "mean_azimuth", _wrap_azimuth(self.mean_azimuth)
        )


@dataclass(frozen=True)
class AngularPowerSpectrum:
    """Angular power distribution at one link end.

    ``kind`` is either ``"isotropic"`` (value 1 everywhere, components empty)
    or ``"vmf"`` (mixture of VMF probability densities, weights summing to 1).
    """

    kind: str
    components: tuple[VmfComponent, ...] = ()

    @cached_property
    def mixture_arrays(self):
        """(mean unit vectors, concentrations, weighted front factors,
        constant term) for batched evaluation: the spectrum at unit vector p
        is constant + sum_k coef_k * exp(alpha_k * (p . mean_k - 1)).  The
        isotropic spectrum is the constant 1 with no VMF terms."""
        means, alphas, coefs = [], [], []
        constant = 1.0 if self.kind == "isotropic" else 0.0
        for c in self.components:
            if c.concentration < _ISOTROPIC_ALPHA:
                constant += c.weight / (4.0 * math.pi)
                continue
            st, ct = math.sin(c.mean_elevation), math.cos(c.mean_elevation)
            means.append(
                [st * math.cos(c.mean_azimuth), st * math.sin(c.mean_azimuth), ct]
            )
            a = c.concentration
            alphas.append(a)
            coefs.append(
                c.weight * a / (2.0 * math.pi * (1.0 - math.exp(-2.0 * a)))
            )
        return (
            np.array(means).reshape(-1, 3),
            np.array(alphas),
            np.array(coefs),
            constant,
        )

    def __post_init__(self):
        if self.kind not in ("isotropic", "vmf"):
            raise ValueError(f"unknown spectrum kind {self.kind!r}")
        if self.kind == "isotropic" and self.components:
            raise ValueError("isotropic spectrum carries no components")
        if self.kind == "vmf":
            if not self.components:
                raise ValueError("vmf spectrum needs at least one component")
            total = sum(c.weight for c in self.components)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"component weights sum to {total}, expected 1")

    @staticmethod
    def isotropic() -> "AngularPowerSpectrum":
        return AngularPowerSpectrum(kind="isotropic")

    @staticmethod
    def mixture(components) -> "AngularPowerSpectrum":
        return AngularPowerSpectrum(kind="vmf", components=tuple(components))


def concentration_from_spread(spread_deg: float) -> float:
    """VMF concentration from an angular spread in degrees.

    Valid for small spreads (0, 21) degrees; outside that range the
    small-spread approximation breaks down and SpreadOutOfRange is raised.
    """
    if not 0.0 < spread_deg < _SPREAD_LIMIT_DEG:
        raise SpreadOutOfRange(
            f"spread {spread_deg} deg outside the valid angular-spread range "
            f"(0, {_SPREAD_LIMIT_DEG:g}) deg"
        )
    return 212.9**2 / spread_deg**2


@dataclass(frozen=True)
class CdlClusterRow:
    """One cluster of a CDL table: power and departure/arrival angles."""

    cluster_id: int
    power_db: float
    aod_deg: float
    zod_deg: float
    aoa_deg: float
    zoa_deg: float

    def __post_init__(self):
        angles = (self.power_db, self.aod_deg, self.zod_deg, self.aoa_deg, self.zoa_deg)
        if not all(math.isfinite(a) for a in angles):
            raise ValueError(f"non-finite value in cluster row {self.cluster_id}")
        for name, zenith in (("zod_deg", self.zod_deg), ("zoa_deg", self.zoa_deg)):
            if not 0.0 <= zenith <= 180.0:
                raise ValueError(
                    f"{name}={zenith} outside [0, 180] in cluster {self.cluster_id}"
                )


def spectra_from_cdl(rows, asd_deg: float, asa_deg: float):
    """Build the (departure, arrival) spectrum pair from CDL cluster rows.

    One VMF component per cluster at each end: departure means from
    (AoD, ZoD), arrival means from (AoA, ZoA).  All components at one end
    share the concentration derived from the table-level departure/arrival
    spread.  Weights are the normalized linear cluster powers.
    """
    rows = list(rows)
    if not rows:
        raise EmptyTable("cluster table has no rows")
    alpha_dep = concentration_from_spread(asd_deg)
    alpha_arr = concentration_from_spread(asa_deg)

    powers = np.array([10.0 ** (r.power_db / 10.0) for r in rows])
    weights = powers / powers.sum()
    # Renormalize in compensated form so the invariant sum == 1 holds tightly.
    weights = weights / math.fsum(weights)

    dep = [
        VmfComponent(
            weight=w,
            mean_azimuth=math.radians(r.aod_deg),
            mean_elevation=math.radians(r.zod_deg),
            concentration=alpha_dep,
        )
        for w, r in zip(weights, rows)
    ]
    arr = [
        VmfComponent(
            weight=w,
            mean_azimuth=math.radians(r.aoa_deg),
            mean_elevation=math.radians(r.zoa_deg),
            concentration=alpha_arr,
        )
        for w, r in zip(weights, rows)
    ]
    return AngularPowerSpectrum.mixture(dep), AngularPowerSpectrum.mixture(arr)


def _cluster_row(rec) -> CdlClusterRow:
    return CdlClusterRow(int(rec[0]), *(float(x) for x in rec[1:]))


def load_cdl_rows(path) -> list[CdlClusterRow]:
    """The cluster rows of a CDL table CSV, read by ``files.read_table``.

    The header must be exactly ``cluster_id,power_db,aod_deg,zod_deg,
    aoa_deg,zoa_deg``."""
    return read_table(path, _TABLE_COLUMNS, _cluster_row, MalformedTableFile,
                      EmptyTable)


def load_cdl_table(path) -> tuple[list[CdlClusterRow], dict]:
    """``load_cdl_rows`` of a CDL table and its JSON metadata sidecar.

    The sidecar ``<stem>.json`` next to the table carries ``asd_deg`` and
    ``asa_deg``; it is optional and an empty dict is returned when absent.
    It is read by ``files.read_json``.  A sweep takes its spreads from the
    config and reads the table alone.
    """
    rows = load_cdl_rows(path)
    sidecar = Path(path).with_suffix(".json")
    meta = read_json(sidecar, MalformedTableFile) if sidecar.exists() else {}
    return rows, meta


def rotate_spectrum(
    spectrum: AngularPowerSpectrum, azimuth_offset_rad: float
) -> AngularPowerSpectrum:
    """Rotate all component mean azimuths by a common offset.

    Isotropic spectra are rotation invariant and returned unchanged.
    """
    if spectrum.kind == "isotropic" or azimuth_offset_rad == 0.0:
        return spectrum
    rotated = [
        VmfComponent(
            weight=c.weight,
            mean_azimuth=_wrap_azimuth(c.mean_azimuth + azimuth_offset_rad),
            mean_elevation=c.mean_elevation,
            concentration=c.concentration,
        )
        for c in spectrum.components
    ]
    return AngularPowerSpectrum.mixture(rotated)
