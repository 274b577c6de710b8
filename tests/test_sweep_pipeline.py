"""The sweep pipeline: golden outputs, lattice reuse, synth agreement, and
non-convergence warnings."""

import functools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holomimo.sweep as sweep_module
from holomimo import CapacityReport, config_from_dict, render, run_sweep
from holomimo.cli import main
from holomimo.config import bundled_cdl_path

# Rendered sweeps recorded before the single- and multi-user sweeps were
# merged (numpy 2.4, OpenBLAS, x86-64), when capacity was still evaluated on
# element-domain channels.  The bundled CDL-B table path is stored as a
# placeholder because it depends on the install location.
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_sweeps.json").read_text()
)
CDL_PLACEHOLDER = "@CDL_B@"

# Capacity is evaluated on harmonic-domain channels, whose singular values
# and sum capacity equal the element-domain ones up to rounding: single-user
# values agree to 1e-12 relative, and the multi-user solver, started from a
# different (smaller) initial covariance, stops within 1e-5 bits.
VALUE_FIELDS = (("mean_bits", 4), ("std_bits", 5))  # (JSON key, CSV column)


def assert_value_close(actual, expected, users):
    if users == 1:
        assert actual == pytest.approx(expected, rel=1e-12, abs=0.0)
    else:
        assert actual == pytest.approx(expected, rel=0.0, abs=1e-5)


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


def rendered(users, spectrum, jobs):
    result = run_sweep(golden_config(users, spectrum), jobs=jobs)
    return {
        fmt: render(result, fmt).replace(CDL["path"], CDL_PLACEHOLDER)
        for fmt in ("json", "csv")
    }


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("spectrum", ["isotropic", "cdl"])
@pytest.mark.parametrize("users", [1, 2, 3])
def test_rendered_sweep_matches_golden_bytes(users, spectrum, jobs):
    got = rendered(users, spectrum, jobs)
    expected = GOLDEN[f"users{users}-{spectrum}"]

    got_json, expected_json = json.loads(got["json"]), json.loads(expected["json"])
    assert got_json["config"] == expected_json["config"]
    assert len(got_json["rows"]) == len(expected_json["rows"])
    for row, ref in zip(got_json["rows"], expected_json["rows"]):
        for key, _column in VALUE_FIELDS:
            assert_value_close(row.pop(key), ref.pop(key), users)
        assert row == ref

    if users == 1:
        assert got["csv"] == expected["csv"]
        return
    got_lines, expected_lines = got["csv"].splitlines(), expected["csv"].splitlines()
    assert got_lines[0] == expected_lines[0]
    assert len(got_lines) == len(expected_lines)
    for line, ref_line in zip(got_lines[1:], expected_lines[1:]):
        fields, ref_fields = line.split(","), ref_line.split(",")
        for _key, column in VALUE_FIELDS:
            assert_value_close(
                float(fields[column]), float(ref_fields[column]), users
            )
            fields[column] = ref_fields[column] = None
        assert fields == ref_fields


@pytest.mark.parametrize("spectrum", ["isotropic", "cdl"])
@pytest.mark.parametrize("users", [1, 2, 3])
def test_rendered_sweep_is_byte_identical_across_jobs(users, spectrum):
    assert rendered(users, spectrum, 1) == rendered(users, spectrum, 2)


@functools.cache
def full_chunk(users, count):
    """(scenario, _evaluate_chunk of realizations 0..count-1) of a CDL sweep."""
    config = replace(golden_config(users=users, spectrum="cdl"), realizations=count)
    scenario = sweep_module.resolve_scenario(config)
    return scenario, sweep_module._evaluate_chunk((scenario, range(count)))


@pytest.mark.parametrize("past_edge", [-1, 1])
@pytest.mark.parametrize("users", [1, 2, 3])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_any_chunk_is_the_slice_of_the_full_range(users, past_edge, data):
    # The full range ends one realization before or after the first block
    # edge; a chunk that starts elsewhere puts its block edges elsewhere.
    count = sweep_module._BLOCK // users + past_edge
    scenario, full = full_chunk(users, count)
    start = data.draw(st.integers(0, count - 1), label="start")
    stop = data.draw(st.integers(start + 1, count), label="stop")
    chunk = sweep_module._evaluate_chunk((scenario, range(start, stop)))
    assert chunk == full[start:stop]


def lattice_builds(monkeypatch, ue_aperture):
    """(aperture_x, aperture_y) of every lattice a 3-user CDL sweep builds,
    and its config."""
    calls = []

    def counting(original):
        def wrapped(*args, **kwargs):
            calls.append(args[:2])
            return original(*args, **kwargs)

        return wrapped

    def counting_spectra(original):
        def wrapped(aperture_x, aperture_y, spectra):
            calls.extend((aperture_x, aperture_y) for _ in spectra)
            return original(aperture_x, aperture_y, spectra)

        return wrapped

    monkeypatch.setattr(
        sweep_module, "build_lattice", counting(sweep_module.build_lattice)
    )
    monkeypatch.setattr(
        sweep_module, "build_lattices", counting_spectra(sweep_module.build_lattices)
    )
    config = replace(golden_config(users=3, spectrum="cdl"), ue_aperture=ue_aperture)
    run_sweep(config)
    assert len(config.spacing_list) == 2
    return calls, config


def test_rotated_lattices_are_built_once_per_user_and_realization(monkeypatch):
    # Only the broadside cell of a 1-wavelength UE aperture meets the unit
    # disk, so every user there keeps one indicator lattice, which takes no
    # quadrature.
    calls, config = lattice_builds(monkeypatch, ue_aperture=1.0)
    assert len(calls) == config.users * config.realizations
    assert calls.count((1.0, 1.0)) == 0


def test_both_ends_are_rotated_at_a_2_wavelength_ue(monkeypatch):
    calls, config = lattice_builds(monkeypatch, ue_aperture=2.0)
    assert len(calls) == 2 * config.users * config.realizations


def test_synth_writes_the_channel_the_sweep_samples(tmp_path, monkeypatch):
    # The sweep evaluates harmonic-domain channels; ``holo synth`` writes the
    # element-domain matrix of the same draw, with the same nonzero singular
    # values.  At a 1.5-wavelength receive aperture the isotropic spectrum
    # gives all 9 harmonics power at both ends (at 1 wavelength only the
    # broadside cell meets the unit disk).
    data = {**BASE, "ue_aperture": 1.5}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    spacing_index, realization = 1, 2

    sampled = []
    original = sweep_module.harmonic_channels

    def recording(plan, coefficients):
        matrices = original(plan, coefficients)
        sampled.append(matrices)
        return matrices

    monkeypatch.setattr(sweep_module, "harmonic_channels", recording)
    run_sweep(config_from_dict(data))
    # The sweep's 4 realizations of its one user form one stack per spacing.
    reduced = sampled[spacing_index][realization, 0]

    out = tmp_path / "h.csv"
    assert main(
        [
            "synth", "--config", str(path), "--out", str(out),
            "--realization", str(realization),
            "--spacing-index", str(spacing_index),
        ]
    ) == 0
    written = np.zeros((36, 36), dtype=complex)
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == written.size
    for line in lines:
        row, col, re, im = line.split(",")
        written[int(row), int(col)] = complex(float(re), float(im))
    assert reduced.shape == (9, 9)
    expected = np.linalg.svd(reduced, compute_uv=False)
    singular = np.linalg.svd(written, compute_uv=False)
    assert expected[-1] > 1e-3 * expected[0]
    np.testing.assert_allclose(singular[: expected.size], expected, rtol=1e-12)
    np.testing.assert_array_less(singular[expected.size :], 1e-12 * singular[0])


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


def test_pool_starts_one_worker_per_chunk(monkeypatch):
    # Forked pools start all their workers on the first submit, so asking
    # for more than there are chunks would start idle processes.
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(sweep_module, "_process_pool", lambda: SerialPool)
    config = config_from_dict({**BASE, "realizations": 3})
    result = run_sweep(config, jobs=64)
    assert started == [3]
    assert render(result, "csv") == render(run_sweep(config, jobs=1), "csv")


def test_a_serial_sweep_loads_no_process_pool():
    # ``concurrent.futures.process`` and ``multiprocessing`` take 10-16 ms to
    # import; only a sweep with --jobs above 1 needs them.
    script = """
import contextlib, io, sys
from holomimo.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["sweep", "--preset", "fig3-cdlb", "--realizations", "2"])
loaded = [m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules]
sys.exit(f"exit {code}, loaded {loaded}" if code or loaded else 0)
"""
    package_root = str(Path(sweep_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def run_and_list_numpy_polynomial(tmp_path, mode, **overrides):
    """``holo capacity <mode>`` on a 2-wavelength BS config with
    ``overrides``, in a fresh process: its exit code and whether it
    imported ``numpy.polynomial``, as the output's last two words."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "carrier_ghz": 3.5, "bs_aperture": 2.0, "ue_aperture": 1.0,
        "spacing_list": [0.5],
        "spectrum_spec": {"kind": "cdl", "path": str(bundled_cdl_path()),
                          "asd_deg": 10.0, "asa_deg": 20.0},
        "pattern_spec": {"kind": "uniform"},
        "efficiency_spec": {"kind": "relative_eta", "eta": 1.0},
        "snr_db": 0.0, "realizations": 2, "users": 2, "seed": 0, **overrides,
    }))
    script = """
import sys
from holomimo.cli import main
code = main(["capacity", sys.argv[2], "--config", sys.argv[1]])
print(code, "numpy.polynomial" in sys.modules)
"""
    package_root = str(Path(sweep_module.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, str(config), mode],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()[-2:]


def test_a_multi_user_cdl_run_does_not_import_numpy_polynomial(tmp_path):
    # The cell quadrature's Gauss-Legendre rules are computed without it,
    # so no sweep pays for its import.
    assert run_and_list_numpy_polynomial(tmp_path, "mu") == ["0", "False"]


def test_a_file_pattern_run_does_not_import_numpy_polynomial(tmp_path):
    # A filed pattern's sphere power takes its elevation rule from the cell
    # quadrature's, not from numpy's leggauss.
    pattern = Path(__file__).parent / "data" / "pattern_one_element.csv"
    assert run_and_list_numpy_polynomial(
        tmp_path, "su", users=1, pattern_spec={"kind": "file", "path": str(pattern)},
    ) == ["0", "False"]
