"""Experiment orchestration: Monte Carlo sweeps and their CSV or JSON rendering.

A sweep evaluates the mean and standard deviation of capacity over channel
realizations for every spacing in the scenario.  Single- and multi-user
realizations run one loop over blocks of _BLOCK user channels (a single
user is the unrotated reference user).  A block's users are dropped first,
the lattices of all their rotated spectra are built in one quadrature pass
per aperture, and each distinct lattice pair gets its variances
(``build_variance_table``).  None of these, nor a user's Fourier
coefficients, depend on the spacing: each is made once, the block's
coefficients in one ``draw_block`` call, and every spacing maps the
block's stack of draws through its plan (``Scenario.plans``; a plan's
kept harmonics and R factors do not depend on the users either).  Only the
capacity differs: a single user's channels of every spacing of one shape are
water-filled row by row from one stacked SVD (one ``su_capacities`` call
per block), and each multi-user realization runs the sum-capacity solver.
A link end with one cell in the unit disk (``inert_ends``, the presets'
1-wavelength receive aperture) builds no lattice: the variance table
normalizes any spectrum there to the indicator of that cell, so every user
shares its ``indicator_lattice``; ``holo lattice`` still integrates it.

Importing holomimo runs OpenBLAS on one thread, in ``--jobs`` workers too;
the process pool is imported only when a sweep starts one.
Realizations use counter-based random streams keyed by (seed, realization
index), each lattice is bitwise the one its spectrum gets alone, and each
row of a stack is computed on its own, so results are bitwise identical
regardless of how many worker processes are used or where a block starts;
aggregation assembles per-realization values in index order before
reducing.

Capacity is evaluated on harmonic-domain channels
(``synthesis.harmonic_channels``) of the harmonics whose cells meet the unit
disk, which have the singular values and sum capacity of the element
matrices.  All users share transmit coordinates because the transmit basis
and its kept harmonics depend on the array and the aperture, not on the
user's rotated spectrum.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .capacity import UserDrop, drop_users, mu_sum_capacity, su_capacities
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
from .errors import MalformedTableFile
from .geometry import build_planar_array
from .lattice import (
    build_lattice,
    build_lattices,
    build_variance_table,
    harmonic_geometry,
    indicator_lattice,
)
from .spectrum import (
    AngularPowerSpectrum,
    load_cdl_rows,
    rotate_spectrum,
    spectra_from_cdl,
)
from .synthesis import MASK64, build_plan, draw_block, harmonic_channels

__all__ = ["SweepRow", "SweepResult", "Scenario", "resolve_scenario",
           "run_sweep", "render"]

CSV_HEADER = "spacing_wl,efficiency_mode,spectrum,pattern,mean_bits,std_bits,realizations,seed"

# User channels evaluated as one block: a single user's realizations in
# stacks of 40, ten users' in blocks of 4 realizations, whose 40 rotated
# lattices share one quadrature pass per aperture.  Every value is computed
# on its own, so the size changes no value, only the memory a block holds:
# one stack of all 200 fig3-cdlb realizations added 2.5 MB (6%) of peak
# RSS, and a fig4 pass over 40 realizations' 400 spectra 6%.
_BLOCK = 40
# The user of a single-user sweep: at the 50 m / 0 dB reference, unrotated.
_REFERENCE_USER = UserDrop(distance_m=50.0, azimuth_deg=0.0, snr_db=0.0,
                           orientation_deg=0.0)


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

    A synthesis plan belongs to a spacing: its kept harmonics and R
    factors depend on the arrays and the apertures, not on any spectrum.
    The variances belong to the lattice pair of one user, who keeps them for
    all spacings.  Each part is built on first use and then kept:
    ``holo lattice`` reads no pattern or S-parameter file.
    """

    config: ScenarioConfig

    @cached_property
    def spectra(self):
        """(departure, arrival) spectra before any user rotation."""
        spec = self.config.spectrum_spec
        if spec["kind"] == "isotropic":
            iso = AngularPowerSpectrum.isotropic()
            return iso, iso
        rows = load_cdl_rows(spec["path"])
        try:
            return spectra_from_cdl(rows, asd_deg=spec["asd_deg"], asa_deg=spec["asa_deg"])
        except MalformedTableFile as exc:  # a cluster's power: name the file too
            raise MalformedTableFile(f"{spec['path']}: {exc}") from exc

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
            if len(harmonic_geometry(a, a).support) == 1
        )

    def realization_lattices(self, drops):
        """(departure, arrival) lattices of each dropped user's rotated spectra.

        The sector azimuth rotates the departure spectrum and the terminal
        orientation the arrival spectrum, each end's in one ``build_lattices``
        pass.  An inert end (``inert_ends``) rotates nothing, and it and a
        spectrum that rotation hands back unchanged (isotropic, or any at
        the reference user's angles of 0) keep the unrotated lattice, which
        is looked up only then; its ``DegenerateSpectrum`` check covers
        every user, since rotation keeps the hemisphere mass and peak."""
        ends = []
        for end, spectrum, angles in (
            ("bs", self.spectra[0], [drop.azimuth_deg for drop in drops]),
            ("ue", self.spectra[1], [drop.orientation_deg for drop in drops]),
        ):
            if end in self.inert_ends:
                ends.append([getattr(self, f"{end}_lattice")] * len(angles))
                continue
            aperture = getattr(self.config, f"{end}_aperture")
            rotated = [rotate_spectrum(spectrum, math.radians(a)) for a in angles]
            changed = [s for s in rotated if s is not spectrum]
            built = iter(build_lattices(aperture, aperture, changed))
            ends.append([getattr(self, f"{end}_lattice") if s is spectrum
                         else next(built) for s in rotated])
        return list(zip(*ends))

    @cached_property
    def plans(self):
        """The synthesis plan of each spacing, shared by every user.  It is
        read before any variance table is built, so that a pattern or
        S-parameter file fails before a degenerate spectrum does."""
        config = self.config
        plans = []
        for spacing in config.spacing_list:
            bs, ue = (build_planar_array(a, a, spacing, spacing)
                      for a in (config.bs_aperture, config.ue_aperture))
            plans.append(build_plan(bs, ue, self.coupling("bs", bs),
                                    self.coupling("ue", ue)))
        return plans


def resolve_scenario(config: ScenarioConfig) -> Scenario:
    """Validate a config and return the Scenario that builds its objects."""
    return Scenario(config.validate())


def _process_pool():
    """The pool class of ``--jobs``, imported only when a sweep uses one:
    ``concurrent.futures.process`` loads ``multiprocessing``."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor


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


def _evaluate_chunk(args):
    """(value_bits, converged) at every spacing for each realization of a
    chunk, in index order.

    Realizations go in blocks of _BLOCK user channels.  A single user is
    the reference user, whom rotation leaves on the unrotated lattices and
    whose amplitude is 1; it draws from the stream of its realization index,
    user k of several from (index << 32) | k."""
    scenario, indices = args
    config = scenario.config
    users = config.users
    budget = 10.0 ** (config.snr_db / 10.0)
    per_block = max(1, _BLOCK // users)
    out = []
    for start in range(0, len(indices), per_block):
        block = indices[start:start + per_block]
        if users == 1:
            drops, keys = [_REFERENCE_USER] * len(block), list(block)
        else:
            drops = [d for r in block for d in drop_users(users, _drop_seed(config.seed, r))]
            keys = [(r << 32) | k for r in block for k in range(users)]
        lattices = scenario.realization_lattices(drops)
        plans = scenario.plans  # a bad pattern file fails before the variances
        tables = {pair: build_variance_table(*pair) for pair in dict.fromkeys(lattices)}
        coefficients = draw_block([tables[pair] for pair in lattices], config.seed, keys)
        coefficients = coefficients.reshape(len(block), users, *coefficients.shape[1:])
        amplitudes = np.array([10.0 ** (d.snr_db / 20.0) for d in drops]).reshape(
            len(block), users, 1, 1)
        channels = [harmonic_channels(plan, coefficients) * amplitudes for plan in plans]
        if users == 1:
            values = [[(v, True) for v in bits] for bits in
                      _stacked_capacities([c[:, 0] for c in channels], config.snr_db)]
        else:
            reports = [[mu_sum_capacity(c, budget) for c in stack] for stack in channels]
            values = [[(rep.value_bits, rep.converged) for rep in row] for row in reports]
        out.extend(list(pairs) for pairs in zip(*values))
    return out


def _stacked_capacities(stacks, snr_db):
    """``su_capacities`` bits of each stack of channels, as lists: the
    stacks of one matrix shape (every spacing's, at the presets) go through
    one call, which computes each matrix on its own."""
    bits = [None] * len(stacks)
    shapes = {}
    for s, stack in enumerate(stacks):
        shapes.setdefault(stack.shape, []).append(s)
    for members in shapes.values():
        values = su_capacities(np.concatenate([stacks[s] for s in members]), snr_db)[2]
        for s, row in zip(members, values.reshape(len(members), -1)):
            bits[s] = row.tolist()
    return bits


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
        with _process_pool()(max_workers=len(tasks)) as pool:
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


def _csv_line(row: SweepRow) -> str:
    return ",".join(format(v, ".9g") if isinstance(v, float) else str(v)
                    for v in (getattr(row, name) for name in CSV_HEADER.split(",")))


def render(result: SweepResult, fmt: str = "csv") -> str:
    """Render a sweep result as CSV (9 significant digits) or JSON (exact
    floats plus the full config echo)."""
    if fmt == "csv":
        lines = [CSV_HEADER] + [_csv_line(r) for r in result.rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        body = {"rows": [asdict(r) for r in result.rows],
                "config": result.config.to_dict()}
        return json.dumps(body, indent=2) + "\n"
    raise ValueError(f"format must be csv or json, got {fmt!r}")
