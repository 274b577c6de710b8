"""Tests of the benchmark itself.

The smoke tests run every workload at its smallest size through the real
command line, untraced and traced, and check the result line against
BENCHMARK.json.  They take about a minute on a 2-core machine.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=175,
    )


def test_benchmark_json_matches_the_runner():
    assert [w for w in WORKLOADS] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.metric_units(False)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.metric_units(True)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric_and_passes_the_gate(workload, trace, section):
    proc = _bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    assert "failed_frac = 0 " in proc.stdout


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _rows(workload, size):
    spec = run.WORKLOADS[workload]
    return [dict(r, realizations=spec["realizations"][size], seed=0, not_converged=0)
            for r in run.load_reference()["workloads"][workload][size]["rows"]]


def test_gate_holds_single_user_rows_to_1e9_relative():
    reference = run.load_reference()
    rows = _rows("fig3-cdlb", "full")
    assert run.gate("fig3-cdlb", 0, "full", rows, reference) == []
    rows[1]["mean_bits"] *= 1 + 5e-10
    assert run.gate("fig3-cdlb", 0, "full", rows, reference) == []
    rows[1]["mean_bits"] *= 1 + 2e-9
    assert run.gate("fig3-cdlb", 0, "full", rows, reference)


def test_gate_holds_multi_user_rows_to_the_solver_tolerance():
    reference = run.load_reference()
    rows = _rows("fig4-halfwave", "full")
    rows[0]["mean_bits"] += 0.5 * run.MU_ATOL_BITS
    assert run.gate("fig4-halfwave", 0, "full", rows, reference) == []
    rows[0]["mean_bits"] += run.MU_ATOL_BITS
    assert run.gate("fig4-halfwave", 0, "full", rows, reference)


def test_gate_at_other_seeds_checks_the_band_and_finiteness():
    reference = run.load_reference()
    band = reference["workloads"]["fig4-dense"]["band"]["rows"][0]
    rows = [dict(spacing_wl=0.125, mean_bits=band["mean_bits"] + band["std_bits"],
                 std_bits=0.0, realizations=1, seed=7, not_converged=0)]
    assert run.gate("fig4-dense", 7, "full", rows, reference) == []
    rows[0]["mean_bits"] = band["mean_bits"] + 10 * band["std_bits"]
    assert run.gate("fig4-dense", 7, "full", rows, reference)
    rows[0]["mean_bits"] = float("nan")
    assert run.gate("fig4-dense", 7, "full", rows, reference)


def test_gate_requires_samples_of_one_run_to_repeat():
    reference = run.load_reference()
    rows = [dict(spacing_wl=0.125, mean_bits=25.0, std_bits=0.0, realizations=1,
                 seed=7, not_converged=0)]
    earlier = [dict(rows[0])]
    assert run.gate("fig4-dense", 7, "full", rows, reference, earlier) == []
    earlier[0]["mean_bits"] += 2 * run.MU_ATOL_BITS
    assert run.gate("fig4-dense", 7, "full", rows, reference, earlier)
