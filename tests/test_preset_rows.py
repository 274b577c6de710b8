"""The paper's presets at full length reproduce data/preset_rows.json.

The fig3 presets take well under a second each; fig4-multiuser takes about
a minute, so CI checks it with ``preset_rows.py check`` instead."""

import json

import pytest
from preset_rows import FAILING, SWEEPS, load, row_mismatches

from holomimo import preset, render, run_sweep
from holomimo.cli import main

PINNED = load()


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
