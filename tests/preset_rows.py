"""The paper's preset sweeps at full length, pinned in data/preset_rows.json.

The file holds the ``--format json`` rows of the fig3 single-user presets
and the fig4 multi-user preset at their 1000 realizations and seed 0, and
fig3-dipole's documented exit 4 with its one ``error:`` line.  A change that
is meant to move these results re-records the file; any other change must
reproduce it.

    python tests/preset_rows.py record            # re-record the file
    python tests/preset_rows.py check --holo holo PRESET...

``check`` runs each preset (``--jobs 2``) with the given command and
compares it with the file; ``--holo`` defaults to ``python -m holomimo.cli``,
which needs the package installed or ``src`` on PYTHONPATH.
Single-user rows must agree within 1e-12 relative, multi-user rows within
1e-5 bits, the multi-user solver's tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

PATH = Path(__file__).parent / "data" / "preset_rows.json"
SWEEPS = ("fig3-isotropic", "fig3-cdlb", "fig3-hannan", "fig4-multiuser")
FAILING = "fig3-dipole"
SINGLE_USER_RTOL = 1e-12
MULTI_USER_ATOL_BITS = 1e-5


def load():
    return json.loads(PATH.read_text())


def run(holo, name):
    """(exit code, stdout, stderr) of ``holo sweep --preset name``."""
    done = subprocess.run(
        [*holo, "sweep", "--preset", name, "--format", "json", "--jobs", "2"],
        capture_output=True, text=True,
    )
    return done.returncode, done.stdout, done.stderr


def row_mismatches(name, rows, expected):
    """Descriptions of the ways ``rows`` differ from the pinned ``expected``
    rows of preset ``name``; empty when they agree."""
    if len(rows) != len(expected):
        return [f"{name}: {len(rows)} rows, pinned {len(expected)}"]
    out = []
    for row, pinned in zip(rows, expected):
        for key, want in pinned.items():
            got = row.get(key)
            if key in ("mean_bits", "std_bits"):
                if name == "fig4-multiuser":
                    close = abs(got - want) <= MULTI_USER_ATOL_BITS
                else:
                    close = math.isclose(got, want, rel_tol=SINGLE_USER_RTOL, abs_tol=0.0)
            else:
                close = got == want
            if not close:
                out.append(f"{name} spacing {pinned['spacing_wl']}: {key} {got!r}, pinned {want!r}")
    return out


def record(holo):
    pinned = {"realizations": 1000, "seed": 0, "rows": {}}
    for name in SWEEPS:
        code, stdout, stderr = run(holo, name)
        if code != 0:
            sys.exit(f"{name} exited {code}: {stderr}")
        pinned["rows"][name] = json.loads(stdout)["rows"]
    code, _stdout, stderr = run(holo, FAILING)
    pinned[FAILING] = {"exit": code, "stderr": stderr}
    PATH.write_text(json.dumps(pinned, indent=2) + "\n")


def check(holo, names):
    pinned = load()
    problems = []
    for name in names:
        code, stdout, stderr = run(holo, name)
        if name == FAILING:
            want = pinned[FAILING]
            if (code, stderr) != (want["exit"], want["stderr"]):
                problems.append(f"{name}: exit {code} with {stderr!r}, pinned "
                                f"exit {want['exit']} with {want['stderr']!r}")
        elif code != 0:
            problems.append(f"{name} exited {code}: {stderr}")
        else:
            problems += row_mismatches(name, json.loads(stdout)["rows"],
                                       pinned["rows"][name])
    return problems


def parse(argv=None):
    """The command line's arguments.  Intermixed parsing lets preset names
    follow options such as ``--holo``; plain parsing would fill ``presets``
    before it reached them."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("action", choices=("record", "check"))
    parser.add_argument("presets", nargs="*", help=f"of {(*SWEEPS, FAILING)}")
    parser.add_argument("--holo", default=f"{shlex.quote(sys.executable)} -m holomimo.cli")
    args = parser.parse_intermixed_args(argv)
    if args.action == "check" and (
        not args.presets or set(args.presets) - {*SWEEPS, FAILING}
    ):
        parser.error(f"check needs presets of {(*SWEEPS, FAILING)}")
    return args


def main(argv=None):
    args = parse(argv)
    holo = shlex.split(args.holo)
    if args.action == "record":
        record(holo)
        return
    problems = check(holo, args.presets)
    print("\n".join(problems) or f"{len(args.presets)} presets match {PATH.name}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
