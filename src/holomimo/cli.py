"""The ``holo`` command line interface.

Exit codes: 0 success, 2 configuration error, 3 input-file error,
4 numerical failure.  Every command writes its output through ``_write``:
to stdout, or to the ``--out`` file as UTF-8 with LF line endings.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from itertools import chain

from .config import PRESET_NAMES, load_config, preset
from .errors import ConfigError, InputFileError, NumericalError
from .lattice import build_lattice, build_variance_table
from .sweep import Scenario, render, run_sweep
from .synthesis import MASK64, sample_channel

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4
# The exit code of each error class a command may raise; an OSError, such as
# an output file that cannot be opened, exits as an input-file error.
_EXIT_CODES = {ConfigError: EXIT_CONFIG, InputFileError: EXIT_INPUT,
               NumericalError: EXIT_NUMERICAL, OSError: EXIT_INPUT}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holo",
        description="Holographic MIMO channel synthesis and capacity sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lattice = sub.add_parser(
        "lattice", help="dump harmonic indices and spectral integrals"
    )
    lattice.add_argument("--config", required=True)
    lattice.add_argument("--end", choices=("bs", "ue"), default="bs")
    lattice.add_argument("--out", default=None, help="output CSV (default stdout)")

    synth = sub.add_parser("synth", help="write one channel realization as CSV")
    synth.add_argument("--config", required=True)
    synth.add_argument("--out", required=True)
    synth.add_argument("--realization", type=int, default=0)
    synth.add_argument(
        "--spacing-index", type=int, default=0,
        help="which entry of spacing_list to synthesize (default first)",
    )

    capacity = sub.add_parser("capacity", help="run a capacity sweep from a config")
    capacity.add_argument("mode", choices=("su", "mu"))
    capacity.add_argument("--config", required=True)
    capacity.add_argument("--out", default=None, help="output file (default stdout)")
    capacity.add_argument("--format", choices=("csv", "json"), default="csv")
    capacity.add_argument("--jobs", type=int, default=1)

    sweep = sub.add_parser("sweep", help="run a named preset sweep")
    sweep.add_argument("--preset", required=True, choices=PRESET_NAMES)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--realizations", type=int, default=None)
    sweep.add_argument("--out", default=None, help="output file (default stdout)")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--jobs", type=int, default=1)
    return parser


def _write(pieces, out) -> None:
    """Write the strings ``pieces`` to stdout, or to the file ``out`` as
    UTF-8 with LF line endings."""
    if out is None:
        sys.stdout.writelines(pieces)
        return
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(pieces)


def _run(config, args) -> int:
    """Run the sweep of ``config``, write its rows in ``--format`` and warn
    once per row whose multi-user solves did not all converge."""
    result = run_sweep(config, jobs=args.jobs)
    _write([render(result, args.format)], args.out)
    for row in result.rows:
        if row.not_converged:
            print(
                f"warning: spacing {row.spacing_wl:.9g}: {row.not_converged} of "
                f"{row.realizations} realizations stopped before the "
                f"multi-user solver certified its optimality gap within "
                f"max_iterations",
                file=sys.stderr,
            )
    return EXIT_OK


def _cmd_lattice(args) -> int:
    # The quadrature integrals, also at an end whose sweeps need only the
    # indicator of its one cell in the unit disk.
    end, = (e for e in Scenario(load_config(args.config)).ends if e.name == args.end)
    lattice = build_lattice(end.aperture, end.aperture, end.spectrum)
    _write(["ix,iy,integral\n"] + [
        f"{idx.ix},{idx.iy},{format(val, '.9g')}\n"
        for idx, val in zip(lattice.indices, lattice.marginal_integrals)
    ], args.out)
    return EXIT_OK


def _cmd_synth(args) -> int:
    config = load_config(args.config)
    if not 0 <= args.spacing_index < len(config.spacing_list):
        raise ConfigError(
            f"spacing index {args.spacing_index} outside the configured list"
        )
    # Lattices, plans, table: a config bad in several ways fails as a sweep does.
    scenario = Scenario(config)
    lattices = [end.lattice for end in scenario.ends]
    plan = scenario.plans[args.spacing_index]
    matrix = sample_channel(plan, build_variance_table(*lattices), config.seed,
                            args.realization)
    # Streamed: a 1/8-wavelength channel has 65,536 entries.
    _write(chain(["row,col,re,im\n"], (
        f"{i},{j},{float(z.real)!r},{float(z.imag)!r}\n"
        for i, row in enumerate(matrix) for j, z in enumerate(row)
    )), args.out)
    return EXIT_OK


def _cmd_capacity(args) -> int:
    config = load_config(args.config)
    if args.mode == "su" and config.users != 1:
        raise ConfigError("capacity su requires users == 1 in the config")
    if args.mode == "mu" and config.users < 2:
        raise ConfigError("capacity mu requires users >= 2 in the config")
    return _run(config, args)


def _cmd_sweep(args) -> int:
    config = preset(args.preset)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.realizations is not None:
        config = replace(config, realizations=args.realizations)
    return _run(config, args)


def _check_counts(args) -> None:
    """Reject a realization index that is not an unsigned 64-bit word, which
    the random streams would wrap, and fewer than one worker."""
    if not 0 <= getattr(args, "realization", 0) <= MASK64:
        raise ConfigError(
            f"--realization must be >= 0 and < 2**64, got {args.realization}"
        )
    if getattr(args, "jobs", 1) < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "lattice": _cmd_lattice,
        "synth": _cmd_synth,
        "capacity": _cmd_capacity,
        "sweep": _cmd_sweep,
    }
    try:
        _check_counts(args)
        return handlers[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
