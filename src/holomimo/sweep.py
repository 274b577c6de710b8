"""Experiment orchestration: Monte Carlo sweeps and result emission.

A sweep evaluates the mean and standard deviation of capacity over channel
realizations for every spacing in the scenario.  Realizations are the outer
loop and spacings the inner one: the users dropped in a realization, and the
lattices of their rotated spectra, do not depend on the spacing, so they are
shared by every spacing.  Realizations go in blocks of _BLOCK: the users of
a block are dropped first, and the lattices of all of them are built in one
quadrature pass per aperture before the block's realizations are evaluated
in index order.  The plans' bases and R factors do not depend on the users,
so there is one plan per spacing and each user carries only its own
variance table.  A link end with one cell in the unit disk (``inert_ends``,
the presets' 1-wavelength receive aperture) builds no lattice: the variance
table normalizes any spectrum there to the indicator of that cell, so every
user shares its ``indicator_lattice``; ``holo lattice`` still integrates
it.  Processes run OpenBLAS on one thread (``one_blas_thread``).
Realizations use counter-based random streams keyed by (seed, realization
index), and each lattice is bitwise the one its spectrum gets alone, so
results are bitwise identical regardless of how many worker processes are
used; aggregation assembles per-realization values in index order before
reducing.

Capacity is evaluated on harmonic-domain channels
(``synthesis.sample_harmonic_channel``), which have the singular values and
sum capacity of the element matrices.  All users share transmit coordinates
because the transmit basis depends on the array and the lattice index set,
not on the user's rotated spectrum.
"""

from __future__ import annotations

import ctypes
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .capacity import drop_users, mu_sum_capacity, su_capacity
from .config import ScenarioConfig
from .coupling import (
    HALF_WAVE_EFFICIENCY,
    ElementPattern,
    build_coupling_profile,
    efficiency_from_sparams,
    hannan_limit,
    load_pattern_file,
    load_sparams_file,
)
from .geometry import build_planar_array
from .lattice import (
    _disk_cells,
    build_lattice,
    build_lattices,
    build_variance_table,
    indicator_lattice,
)
from .spectrum import (
    AngularPowerSpectrum,
    load_cdl_table,
    rotate_spectrum,
    spectra_from_cdl,
)
from .synthesis import MASK64, build_plan, sample_harmonic_channel

__all__ = ["SweepRow", "SweepResult", "Scenario", "resolve_scenario",
           "run_sweep", "render", "emit"]

CSV_HEADER = "spacing_wl,efficiency_mode,spectrum,pattern,mean_bits,std_bits,realizations,seed"

# Multi-user realizations whose lattices share one quadrature pass.  Larger
# blocks share more tile geometry but hold more tiles at once: at 40 per
# pass the fig4 peak RSS grew by 6%, at 4 by 0.3%.
_BLOCK = 4


@dataclass(frozen=True)
class SweepRow:
    """Aggregated capacity statistics for one swept operating point."""

    spacing_wl: float
    efficiency_mode: str
    spectrum: str
    pattern: str
    mean_bits: float
    std_bits: float
    realizations: int
    seed: int
    not_converged: int = 0  # multi-user solver failures; JSON output only


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    config: ScenarioConfig


@dataclass(frozen=True, eq=False)
class Scenario:
    """A validated config turned into the objects that synthesis needs.

    A plan's bases and R factors belong to a spacing: they depend on the
    arrays and the apertures' harmonic index sets, which every lattice of an
    aperture shares.  Its variance table belongs to a lattice pair, so a
    dropped user carries one table for all spacings.  Each part is built on
    first use and then kept: ``holo lattice`` reads no pattern or S-parameter
    file.
    """

    config: ScenarioConfig
    _plans: list = field(default_factory=list, init=False, repr=False)

    @cached_property
    def spectra(self):
        """(departure, arrival) spectra before any user rotation."""
        spec = self.config.spectrum_spec
        if spec["kind"] == "isotropic":
            iso = AngularPowerSpectrum.isotropic()
            return iso, iso
        rows, _meta = load_cdl_table(spec["path"])
        return spectra_from_cdl(rows, asd_deg=spec["asd_deg"], asa_deg=spec["asa_deg"])

    @cached_property
    def bs_lattice(self):
        return self._lattice("bs", self.spectra[0])

    @cached_property
    def ue_lattice(self):
        return self._lattice("ue", self.spectra[1])

    def _lattice(self, end, spectrum):
        """The lattice of an unrotated spectrum that the variance table
        sees: at an inert end the quadrature-free indicator_lattice, else
        the quadrature of build_lattice."""
        aperture = getattr(self.config, f"{end}_aperture")
        if end in self.inert_ends:
            return indicator_lattice(aperture, aperture, spectrum)
        return build_lattice(aperture, aperture, spectrum)

    @cached_property
    def _pattern_source(self):
        """A shared ElementPattern, or a pattern file's per-element list."""
        pattern = self.config.pattern_spec
        if pattern["kind"] == "uniform":
            return ElementPattern.uniform()
        if pattern["kind"] == "dipole":
            return ElementPattern.dipole()
        patterns = load_pattern_file(pattern["path"])
        # A single filed pattern is shared across all elements of both ends.
        return patterns[0] if len(patterns) == 1 else patterns

    def coupling(self, end, geometry):
        """The coupling profile of ``end``'s array ``geometry``: the pattern
        spec's patterns and the efficiency spec's efficiencies.  A sparams
        config has one spacing, so each S-parameter file is read once."""
        spec = self.config.efficiency_spec
        if spec["kind"] == "relative_eta":
            efficiencies = spec["eta"] * HALF_WAVE_EFFICIENCY
        elif spec["kind"] == "hannan":
            efficiencies = hannan_limit(geometry.spacing_x, geometry.spacing_y)
        else:
            efficiencies = efficiency_from_sparams(load_sparams_file(spec[f"{end}_path"]))
        return build_coupling_profile(geometry, self._pattern_source, efficiencies)

    @property
    def labels(self):
        """(efficiency mode, spectrum, pattern) labels of the result rows."""
        efficiency = self.config.efficiency_spec
        mode = efficiency["kind"]
        if mode == "relative_eta":
            mode = f"relative_eta={efficiency['eta']:.9g}"
        return mode, self.config.spectrum_spec["kind"], self.config.pattern_spec["kind"]

    @cached_property
    def inert_ends(self):
        """Link ends whose normalized variances no spectrum can change.

        An aperture with one cell that meets the unit disk (at 1
        wavelength, the broadside cell) holds the end's whole hemisphere
        mass there, so the variance table normalizes that end to the same
        indicator for every spectrum and every user rotation."""
        return frozenset(
            end for end, a in (("bs", self.config.bs_aperture),
                               ("ue", self.config.ue_aperture))
            if _disk_cells(a, a).sum() == 1.0
        )

    def realization_lattices(self, drops):
        """(departure, arrival) lattices of each dropped user's rotated spectra.

        The sector azimuth rotates the departure spectrum and the terminal
        orientation the arrival spectrum, each end's in one ``build_lattices``
        pass.  An inert end (``inert_ends``) and a spectrum that rotation
        hands back unchanged (isotropic) keep the unrotated lattice, which
        is looked up only then; its ``DegenerateSpectrum`` check covers
        every user, since rotation keeps the hemisphere mass and peak."""
        ends = []
        for end, spectrum, angles in (
            ("bs", self.spectra[0], [drop.azimuth_deg for drop in drops]),
            ("ue", self.spectra[1], [drop.orientation_deg for drop in drops]),
        ):
            aperture = getattr(self.config, f"{end}_aperture")
            rotated = [spectrum if end in self.inert_ends
                       else rotate_spectrum(spectrum, math.radians(a))
                       for a in angles]
            changed = [s for s in rotated if s is not spectrum]
            built = iter(build_lattices(aperture, aperture, changed))
            ends.append([getattr(self, f"{end}_lattice") if s is spectrum
                         else next(built) for s in rotated])
        return list(zip(*ends))

    def plans(self, bs_lattice, ue_lattice):
        """Synthesis plans at every spacing for one lattice pair.

        The first call builds the plans of all spacings on its pair; later
        pairs share their bases and R factors and get their own variance
        table.
        """
        config = self.config
        if not self._plans:
            for spacing in config.spacing_list:
                bs, ue = (build_planar_array(a, a, spacing, spacing)
                          for a in (config.bs_aperture, config.ue_aperture))
                # The lattices stand in for the spectra, which go unused.
                self._plans.append(build_plan(
                    bs, ue, None, None, self.coupling("bs", bs),
                    self.coupling("ue", ue),
                    bs_lattice=bs_lattice, ue_lattice=ue_lattice,
                ))
        table = self._plans[0].variance_table
        if table.bs_lattice is bs_lattice and table.ue_lattice is ue_lattice:
            return self._plans
        table = build_variance_table(bs_lattice, ue_lattice)
        return [replace(plan, variance_table=table) for plan in self._plans]


def resolve_scenario(config: ScenarioConfig) -> Scenario:
    """Validate a config and return the Scenario that builds its objects."""
    return Scenario(config.validate())


def one_blas_thread() -> None:
    """Run numpy's OpenBLAS on one thread in this process.

    The sweep's matrices are small and its quadrature is Python-paced, so
    extra BLAS threads only spin, stall the plan QRs and, under ``--jobs``,
    crowd the workers; and the QRs' rounding depends on the thread count.
    A no-op when the library does not export the setter."""
    try:
        from numpy.linalg import _umath_linalg

        setter = ctypes.CDLL(_umath_linalg.__file__).scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    setter(1)


def _chunks(count: int, parts: int):
    """Split range(count) into at most ``parts`` contiguous chunks."""
    parts = max(1, min(parts, count))
    bounds = np.linspace(0, count, parts + 1).astype(int)
    return [range(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _drop_seed(seed: int, realization: int) -> int:
    """Stable per-realization seed for the user-drop stream."""
    state = np.random.SeedSequence(
        (seed & MASK64, realization, 0xD0B)
    ).generate_state(1, np.uint64)
    return int(state[0])


def _evaluate(scenario: Scenario, r: int, drops, lattices):
    """(value_bits, converged) at every spacing for multi-user realization
    ``r``, whose users are ``drops`` with their lattice pairs."""
    config = scenario.config
    user_plans = [scenario.plans(*pair) for pair in lattices]
    budget = 10.0 ** (config.snr_db / 10.0)
    out = []
    for s in range(len(config.spacing_list)):
        channels = [
            sample_harmonic_channel(plans[s], config.seed, (r << 32) | k)
            * 10.0 ** (drop.snr_db / 20.0)
            for k, (drop, plans) in enumerate(zip(drops, user_plans))
        ]
        report = mu_sum_capacity(channels, budget)
        out.append((report.value_bits, report.converged))
    return out


def _evaluate_chunk(args):
    """(value_bits, converged) at every spacing for each realization of a
    chunk, in index order."""
    scenario, indices = args
    config = scenario.config
    if config.users == 1:
        plans = scenario.plans(scenario.bs_lattice, scenario.ue_lattice)
        return [
            [(su_capacity(sample_harmonic_channel(plan, config.seed, r),
                          config.snr_db).value_bits, True) for plan in plans]
            for r in indices
        ]
    out = []
    for start in range(0, len(indices), _BLOCK):
        block = indices[start:start + _BLOCK]
        drops = [drop_users(config.users, _drop_seed(config.seed, r)) for r in block]
        # Every lattice of the block comes before any plan or QR work, which
        # would leave BLAS threads spinning through the Python quadrature.
        lattices = scenario.realization_lattices([d for ds in drops for d in ds])
        for k, (r, users) in enumerate(zip(block, drops)):
            pairs = lattices[k * config.users:(k + 1) * config.users]
            out.append(_evaluate(scenario, r, users, pairs))
    return out


def _mean_std(values: np.ndarray):
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    return mean, std


def run_sweep(config: ScenarioConfig, jobs: int = 1) -> SweepResult:
    """Mean/std capacity per spacing, deterministic in the seed.

    A single user's channel is water-filled.  With several users, every
    realization drops fresh users (seed-derived), synthesizes each user's
    channel with its rotated spectra and relative pathloss, and runs the
    sum-power iterative water-filling solver.  ``jobs`` worker processes
    each take a contiguous chunk of realizations across all spacings.
    """
    scenario = resolve_scenario(config)
    tasks = [(scenario, chunk) for chunk in _chunks(config.realizations, jobs)]
    if jobs <= 1 or len(tasks) <= 1:
        chunks = [_evaluate_chunk(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=len(tasks),
                                 initializer=one_blas_thread) as pool:
            chunks = list(pool.map(_evaluate_chunk, tasks))
    per_realization = [pairs for chunk in chunks for pairs in chunk]

    mode_label, spectrum_label, pattern_label = scenario.labels
    rows = []
    for s in range(len(config.spacing_list)):
        mean, std = _mean_std(np.array([pairs[s][0] for pairs in per_realization]))
        rows.append(
            SweepRow(
                spacing_wl=config.spacing_list[s],
                efficiency_mode=mode_label,
                spectrum=spectrum_label,
                pattern=pattern_label,
                mean_bits=mean,
                std_bits=std,
                realizations=config.realizations,
                seed=config.seed,
                not_converged=sum(not pairs[s][1] for pairs in per_realization),
            )
        )
    return SweepResult(rows=tuple(rows), config=config)


def _format_row_csv(row: SweepRow) -> str:
    return ",".join(
        [
            format(row.spacing_wl, ".9g"),
            row.efficiency_mode,
            row.spectrum,
            row.pattern,
            format(row.mean_bits, ".9g"),
            format(row.std_bits, ".9g"),
            str(row.realizations),
            str(row.seed),
        ]
    )


def render(result: SweepResult, fmt: str = "csv") -> str:
    """Render a sweep result as CSV (9 significant digits) or JSON (exact
    floats plus the full config echo)."""
    if fmt == "csv":
        lines = [CSV_HEADER] + [_format_row_csv(r) for r in result.rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        body = {
            "rows": [
                {
                    "spacing_wl": r.spacing_wl,
                    "efficiency_mode": r.efficiency_mode,
                    "spectrum": r.spectrum,
                    "pattern": r.pattern,
                    "mean_bits": r.mean_bits,
                    "std_bits": r.std_bits,
                    "realizations": r.realizations,
                    "seed": r.seed,
                    "not_converged": r.not_converged,
                }
                for r in result.rows
            ],
            "config": result.config.to_dict(),
        }
        return json.dumps(body, indent=2) + "\n"
    raise ValueError(f"format must be csv or json, got {fmt!r}")


def emit(result: SweepResult, path, fmt: str = "csv") -> None:
    """Write a rendered sweep result to a file with LF line endings."""
    payload = render(result, fmt)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(payload)
