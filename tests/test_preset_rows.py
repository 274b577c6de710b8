"""The paper's presets at full length reproduce data/preset_rows.json.

The fig3 presets take well under a second each; fig4-multiuser takes about
a minute, so CI checks it with ``preset_rows.py check`` instead."""

import json
import shlex
from pathlib import Path

import pytest
from preset_rows import (
    FAILING, MULTI_USER, SWEEPS, deviation_line, load, parse, row_mismatches,
)

from holomimo import preset, render, run_sweep
from holomimo.cli import main

PINNED = load()
WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"


@pytest.mark.parametrize("name", [name for name in SWEEPS if name.startswith("fig3")])
def test_fig3_preset_reproduces_its_pinned_rows(name):
    config = preset(name)
    assert (config.realizations, config.seed) == (PINNED["realizations"], PINNED["seed"])
    rows = json.loads(render(run_sweep(config), "json"))["rows"]
    assert row_mismatches(name, rows, PINNED["rows"][name]) == []


def test_dipole_preset_fails_as_pinned(capsys):
    code = main(["sweep", "--preset", FAILING])
    assert (code, capsys.readouterr().err) == (
        PINNED[FAILING]["exit"], PINNED[FAILING]["stderr"]
    )


def test_ci_check_step_reaches_its_presets():
    # CI names the presets after --holo; plain argparse parsing would have
    # filled the presets with [] at "check" and rejected the names.
    [step] = [line for line in WORKFLOW.read_text().splitlines()
              if "preset_rows.py check" in line]
    argv = shlex.split(step)
    args = parse(argv[argv.index("tests/preset_rows.py") + 1:])
    assert (args.action, args.holo) == ("check", "holo")
    assert args.presets == ["fig4-multiuser", "fig3-dipole"]


def test_check_prints_each_presets_largest_deviation():
    # Relative for a single-user preset, in bits for the multi-user one,
    # over mean_bits and std_bits of every row.
    for name, unit in (("fig3-cdlb", "relative"), (MULTI_USER, "bits")):
        pinned = PINNED["rows"][name]
        assert deviation_line(name, pinned, pinned) == f"{name}: largest deviation 0 {unit}"
        moved = [dict(row) for row in pinned]
        moved[-1]["std_bits"] += 2e-6 if unit == "bits" else 3e-13 * moved[-1]["std_bits"]
        moved[0]["mean_bits"] *= 1.0 + 1e-14
        line = deviation_line(name, moved, pinned)
        assert line.startswith(f"{name}: largest deviation ")
        assert line.endswith(f" {unit}")
        assert float(line.split()[-2]) == pytest.approx(2e-6 if unit == "bits" else 3e-13,
                                                        rel=1e-3)
