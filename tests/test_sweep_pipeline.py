"""The sweep pipeline: golden outputs, lattice reuse, synth agreement, and
non-convergence warnings."""

import json
from pathlib import Path

import numpy as np
import pytest

import holomimo.sweep as sweep_module
from holomimo import CapacityReport, config_from_dict, render, run_sweep
from holomimo.cli import main
from holomimo.config import bundled_cdl_path

# Rendered sweeps recorded before the single- and multi-user sweeps were
# merged (numpy 2.4, OpenBLAS, x86-64).  The bundled CDL-B table path is
# stored as a placeholder because it depends on the install location.
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_sweeps.json").read_text()
)
CDL_PLACEHOLDER = "@CDL_B@"

BASE = {
    "carrier_ghz": 3.5,
    "bs_aperture": 1.5,
    "ue_aperture": 1.0,
    "spacing_list": [0.5, 0.25],
    "spectrum_spec": {"kind": "isotropic"},
    "pattern_spec": {"kind": "uniform"},
    "efficiency_spec": {"kind": "relative_eta", "eta": 1.0},
    "snr_db": 0.0,
    "realizations": 4,
    "users": 1,
    "seed": 7,
}
CDL = {"kind": "cdl", "path": bundled_cdl_path(), "asd_deg": 10.0, "asa_deg": 20.0}


def golden_config(users, spectrum):
    return config_from_dict(
        {
            **BASE,
            "users": users,
            "spectrum_spec": CDL if spectrum == "cdl" else {"kind": "isotropic"},
            "realizations": 4 if users == 1 else 3,
        }
    )


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("spectrum", ["isotropic", "cdl"])
@pytest.mark.parametrize("users", [1, 2, 3])
def test_rendered_sweep_matches_golden_bytes(users, spectrum, jobs):
    result = run_sweep(golden_config(users, spectrum), jobs=jobs)
    expected = GOLDEN[f"users{users}-{spectrum}"]
    for fmt in ("json", "csv"):
        rendered = render(result, fmt).replace(CDL["path"], CDL_PLACEHOLDER)
        assert rendered == expected[fmt], fmt


def test_rotated_lattices_are_built_once_per_user_and_realization(monkeypatch):
    from holomimo import synthesis

    calls = []

    def counting(original):
        def wrapped(*args, **kwargs):
            calls.append(args[:2])
            return original(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(
        sweep_module, "build_lattice", counting(sweep_module.build_lattice)
    )
    # Plans must reuse the sweep's lattices, never build their own.
    monkeypatch.setattr(synthesis, "build_lattice", counting(synthesis.build_lattice))
    config = golden_config(users=3, spectrum="cdl")
    run_sweep(config)
    assert len(config.spacing_list) == 2
    assert len(calls) == 2 * config.users * config.realizations


def test_synth_writes_the_channel_the_sweep_samples(tmp_path, monkeypatch):
    data = {**BASE, "spectrum_spec": CDL}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    spacing_index, realization = 1, 2

    sampled = {}
    original = sweep_module.sample_channel

    def recording(plan, seed, index):
        draw = original(plan, seed, index)
        sampled.setdefault(index, []).append(draw.matrix)
        return draw

    monkeypatch.setattr(sweep_module, "sample_channel", recording)
    run_sweep(config_from_dict(data))
    expected = sampled[realization][spacing_index]

    out = tmp_path / "h.csv"
    assert main(
        [
            "synth", "--config", str(path), "--out", str(out),
            "--realization", str(realization),
            "--spacing-index", str(spacing_index),
        ]
    ) == 0
    written = np.zeros_like(expected)
    for line in out.read_text().splitlines()[1:]:
        row, col, re, im = line.split(",")
        written[int(row), int(col)] = complex(float(re), float(im))
    assert written.shape == (16, 36)
    np.testing.assert_array_equal(written, expected)


def test_non_converged_rows_warn_on_stderr(tmp_path, monkeypatch, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BASE, "users": 2, "realizations": 3}))

    def stalled(channels, total_power):
        return CapacityReport(value_bits=1.0, iterations=1000, converged=False)

    monkeypatch.setattr(sweep_module, "mu_sum_capacity", stalled)
    assert main(["capacity", "mu", "--config", str(path)]) == 0
    captured = capsys.readouterr()
    warnings = captured.err.splitlines()
    assert len(warnings) == len(BASE["spacing_list"])
    assert all(line.startswith("warning:") for line in warnings)
    assert "3 of 3" in warnings[0]
    # The CSV itself carries no trace of the warning.
    config = config_from_dict({**BASE, "users": 2, "realizations": 3})
    assert captured.out == render(run_sweep(config), "csv")


def test_converged_rows_do_not_warn(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BASE, "users": 2, "realizations": 1}))
    assert main(["capacity", "mu", "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""
