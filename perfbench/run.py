"""holomimo benchmark: per-realization cost of real ``holo`` sweeps.

Run from anywhere; paths resolve against the repository root::

    python3 perfbench/run.py --workload fig4-halfwave --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30          # every workload
    python3 perfbench/run.py --workload fig3-cdlb --trace 1       # per-layer split

Each sample is one fresh ``holo`` process (started through child.py) that
runs the workload's sweep with ``--jobs 1 --format json``.  A run repeats
samples of the same seed-generated input for ``--seconds`` seconds and
reports medians.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced samples and prints the per-layer metrics,
including the tracing overhead.  Every sample's rows pass a correctness
gate against perfbench/reference.json before they are timed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a per-run result
file with provenance goes to perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0  # the seed reference.json was recorded at
HARD_LIMIT_S = 150.0  # a run ends well inside the 180 s it is allowed
SU_RTOL = 1e-9  # single-user: harmonic-domain capacity drifts ~1e-15 relative
# Multi-user: the solver stops when one averaged step changes the sum rate by
# < 1e-6 bits; at contraction (K-1)/K that leaves up to ~1e-5 bits, and a
# certified stop moves values by less than the 1e-4-bit gap measured at the
# current stop.  Mean and std are compared absolutely at this tolerance.
MU_ATOL_BITS = 1e-4
BAND_Z = 6.0  # other seeds: mean within 6 standard errors of the reference

# The fig4 workloads use the fig4-multiuser preset's scenario, written out
# so the program receives only a generated config file.
FIG4_SCENARIO = {
    "carrier_ghz": 3.5,
    "bs_aperture": 4.0,
    "ue_aperture": 1.0,
    "pattern_spec": {"kind": "uniform"},
    "efficiency_spec": {"kind": "relative_eta", "eta": 1.0},
    "snr_db": 0.0,
}

# Why each workload exists is in BENCHMARK.json and perfbench/README.md.
# The sizes keep one sample at 3-5 s on a 2-core machine, so a 35 s run
# takes 7-10 timed samples.
WORKLOADS = {
    "fig3-cdlb": {
        "spacings": (0.5, 0.25, 0.125),
        "users": 1,
        "realizations": {"full": 200, "smoke": 10, "band": 200},
    },
    "fig4-halfwave": {
        "spacings": (0.5,),
        "users": 10,
        "realizations": {"full": 2, "smoke": 1, "band": 16},
    },
    "fig4-dense": {
        "spacings": (0.125,),
        "users": 2,
        "realizations": {"full": 1, "smoke": 1, "band": 8},
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "s_per_realization": "s",
    "cpu_s_per_realization": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: (metric, unit, span name, field of the span summary).
LAYER_SPANS = (
    ("lattice.build_lattice.calls", "count", "lattice.build_lattice", "calls"),
    ("lattice.build_lattice.s", "s", "lattice.build_lattice", "s"),
    ("lattice.build_lattice.self_s", "s", "lattice.build_lattice", "self_s"),
    ("spectrum.spectrum_value.calls", "count", "spectrum.spectrum_value", "calls"),
    ("spectrum.spectrum_value.s", "s", "spectrum.spectrum_value", "s"),
    ("synthesis.build_plan.calls", "count", "synthesis.build_plan", "calls"),
    ("synthesis.build_plan.self_s", "s", "synthesis.build_plan", "self_s"),
    ("synthesis.sample_channel.calls", "count", "synthesis.sample_channel", "calls"),
    ("synthesis.sample_channel.s", "s", "synthesis.sample_channel", "s"),
    ("capacity.su_capacity.calls", "count", "capacity.su_capacity", "calls"),
    ("capacity.su_capacity.s", "s", "capacity.su_capacity", "s"),
    ("capacity.mu_sum_capacity.calls", "count", "capacity.mu_sum_capacity", "calls"),
    ("capacity.mu_sum_capacity.s", "s", "capacity.mu_sum_capacity", "s"),
    ("coupling.build_coupling_profile.s", "s", "coupling.build_coupling_profile", "s"),
    ("geometry.build_planar_array.s", "s", "geometry.build_planar_array", "s"),
    ("config.resolve_s", "s", "config.resolve", "s"),
    ("cli.render.s", "s", "cli.render", "s"),
    ("sweep.run_sweep.s", "s", "sweep.run_sweep", "s"),
    ("sweep.run_sweep.self_s", "s", "sweep.run_sweep", "self_s"),
)
# Exact work counts taken by child.py; they must repeat across traced samples.
LAYER_COUNTS = (
    ("lattice.cells", "count"),
    ("spectrum.spectrum_value.points", "count"),
    ("synthesis.sample_channel.bytes", "bytes"),
    ("capacity.mu_sum_capacity.iterations", "count"),
    ("capacity.mu_sum_capacity.not_converged", "count"),
)


class BenchError(Exception):
    """The benchmark cannot run here at all; no result is printed."""


# ---------------------------------------------------------------- inputs


def holo_args(name: str, seed: int, size: str) -> list[str]:
    """The ``holo`` command line of one workload, generating its config."""
    spec = WORKLOADS[name]
    realizations = spec["realizations"][size]
    if spec["users"] == 1:
        return ["sweep", "--preset", name, "--seed", str(seed),
                "--realizations", str(realizations),
                "--jobs", "1", "--format", "json"]
    config = dict(
        FIG4_SCENARIO,
        spacing_list=list(spec["spacings"]),
        spectrum_spec={"kind": "cdl", "asd_deg": 10.0, "asa_deg": 20.0,
                       "path": str(SRC / "holomimo" / "data" / "cdl_b.csv")},
        realizations=realizations,
        users=spec["users"],
        seed=seed,
    )
    path = RESULTS / f"{name}-seed{seed}-{size}.config.json"
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return ["capacity", "mu", "--config", str(path),
            "--jobs", "1", "--format", "json"]


# ---------------------------------------------------------------- samples


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_sample(args: list[str], trace: bool, tag: str, timeout: float) -> dict:
    """Run one holo process; return its timings, rows and trace summary."""
    record_path = RESULTS / f"{tag}.record.json"
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(record_path), "1" if trace else "0",
           "--", *args]
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"trace": trace, "ok": False, "error": f"timed out after {timeout:.0f} s",
                "wall_s": time.monotonic() - launched}
    wall = time.monotonic() - launched
    sample = {"trace": trace, "ok": False, "wall_s": wall}
    if proc.returncode != 0 or not record_path.exists():
        sample["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        return sample
    record = json.loads(record_path.read_text(encoding="utf-8"))
    if "sweep_start" not in record:
        sample["error"] = "the command never entered a sweep"
        return sample
    try:
        rows = json.loads(proc.stdout)["rows"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        sample["error"] = f"unreadable holo output: {exc}"
        return sample
    sample.update(
        ok=True,
        setup_s=record["sweep_start"] - launched,
        sweep_s=record["sweep_end"] - record["sweep_start"],
        cpu_s=record["sweep_cpu_s"],
        peak_rss_mb=record["peak_rss_kb"] / 1024.0,
        rows=rows,
        layers=record.get("layers"),
        counts=record.get("counts"),
    )
    return sample


# ---------------------------------------------------------------- gate


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def gate(name: str, seed: int, size: str, rows, reference: dict,
         previous=None) -> list[str]:
    """Problems with one sample's rows; empty when the rows are correct.

    At the default seed the rows must equal the recorded ones within the
    accepted drift.  At any other seed each mean must sit within BAND_Z
    standard errors of a larger default-seed run.  With ``previous`` (the
    rows of an earlier sample of the same run) the rows must also repeat
    them within the same drift.
    """
    try:
        return _gate(WORKLOADS[name], reference["workloads"][name], seed, size,
                     rows, previous)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"malformed rows: {exc!r}"]


def _gate(spec, expect, seed, size, rows, previous):
    realizations = spec["realizations"][size]
    if [r.get("spacing_wl") for r in rows] != list(spec["spacings"]):
        return [f"rows for spacings {[r.get('spacing_wl') for r in rows]}, "
                f"expected {list(spec['spacings'])}"]
    for row in rows:
        mean, std = row["mean_bits"], row["std_bits"]
        if not (isinstance(mean, (int, float)) and isinstance(std, (int, float))
                and math.isfinite(mean) and math.isfinite(std) and std >= 0):
            return [f"spacing {row['spacing_wl']}: non-finite mean/std {mean!r}/{std!r}"]
        if row["realizations"] != realizations or row["seed"] != seed:
            return [f"spacing {row['spacing_wl']}: ran {row['realizations']} "
                    f"realizations at seed {row['seed']}"]
    problems = []
    if seed == DEFAULT_SEED:
        problems += _drift(spec, rows, expect[size]["rows"], "the reference")
    else:
        band = expect["band"]
        for row, ref in zip(rows, band["rows"]):
            error = BAND_Z * ref["std_bits"] * math.sqrt(
                1.0 / realizations + 1.0 / band["realizations"])
            if abs(row["mean_bits"] - ref["mean_bits"]) > error:
                problems.append(f"spacing {row['spacing_wl']}: mean "
                                f"{row['mean_bits']!r} outside "
                                f"{ref['mean_bits']:.6g} +- {error:.3g}")
    if previous is not None:
        problems += _drift(spec, rows, previous, "an earlier sample")
    return problems


def _drift(spec, rows, expected, what: str) -> list[str]:
    """Rows whose mean or std differ from ``expected`` beyond the accepted drift."""
    problems = []
    for row, ref in zip(rows, expected):
        for key in ("mean_bits", "std_bits"):
            if spec["users"] == 1:
                tol = SU_RTOL * max(abs(ref[key]), 1e-300)
            else:
                tol = MU_ATOL_BITS * (1 if key == "mean_bits" else 2)
            if abs(row[key] - ref[key]) > tol:
                problems.append(f"spacing {row['spacing_wl']}: {key} {row[key]!r} "
                                f"differs from {what} {ref[key]!r} by more than "
                                f"{tol:.3g}")
    return problems


# ---------------------------------------------------------------- runs


def _median(values):
    return statistics.median(values) if values else float("nan")


def measure(name: str, seed: int, seconds: float, trace: bool, size: str,
            reference: dict) -> dict:
    """Repeat samples for ``seconds``; return metrics, counts and failures.

    A first, untimed sample warms the bytecode and file caches and the
    machine: on the 2-core machine this was tuned on, the first seconds of
    work after a pause run up to 30% slower.  It is gated like the others.
    """
    spec = WORKLOADS[name]
    args = holo_args(name, seed, size)
    solves = spec["realizations"][size] * len(spec["spacings"])
    kinds = (False, True) if trace else (False,)
    min_samples = 2 * len(kinds) if trace else 3
    samples, problems = [], []
    attempted = failed = 0

    def take(kind: bool, tag: str, timeout: float, previous=None) -> dict:
        nonlocal attempted, failed
        sample = run_sample(args, kind, f"{name}-seed{seed}-{size}-{tag}", timeout)
        if sample["ok"]:
            issues = gate(name, seed, size, sample["rows"], reference, previous)
            if issues:
                sample.update(ok=False, error="; ".join(issues))
        attempted += solves
        if sample["ok"]:
            failed += sum(int(r.get("not_converged", 0)) for r in sample["rows"])
        else:
            failed += solves
            problems.append(sample["error"])
        return sample

    begin = time.monotonic()
    warm = take(False, "warmup", HARD_LIMIT_S / 2)
    if "rows" not in warm:
        raise BenchError(f"{name}: the program failed: {warm['error']}")
    start = time.monotonic()
    while True:
        kind = kinds[len(samples) % len(kinds)]
        remaining = HARD_LIMIT_S - (time.monotonic() - begin)
        samples.append(take(kind, "traced" if kind else "plain", max(remaining, 1.0),
                            warm["rows"]))
        typical = _median([s["wall_s"] for s in samples])
        if time.monotonic() - begin + 2 * typical > HARD_LIMIT_S:
            break
        if len(samples) >= min_samples and time.monotonic() - start + typical > seconds:
            break

    # Samples that failed the gate are timed only when no sample passed it;
    # the run then reports correct: false.
    good = [s for s in samples if s["ok"]] or [s for s in samples if "rows" in s]
    plain = [s for s in good if not s["trace"]]
    traced = [s for s in good if s["trace"]]
    if not plain or (trace and not traced):
        raise BenchError(f"{name}: no sample completed: {problems[:3]}")
    realizations = spec["realizations"][size]
    e2e = {
        "setup_s": _median([s["setup_s"] for s in plain]),
        "s_per_realization": _median([s["sweep_s"] / realizations for s in plain]),
        "cpu_s_per_realization": _median([s["cpu_s"] / realizations for s in plain]),
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in plain]),
    }
    out = {
        "holo_args": args,
        "samples": len(samples) + 1,
        "plain_samples": len(plain),
        "traced_samples": len(traced),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": e2e,
        "sample_sweep_s": [round(s["sweep_s"], 6) for s in plain],
        "traced_sweep_s": [round(s["sweep_s"], 6) for s in traced],
        "sample_setup_s": [round(s["setup_s"], 6) for s in plain],
    }
    if trace:
        out["per_layer"], out["shares"], repeat_problems = _layers(traced, plain)
        problems.extend(repeat_problems)
    return out


def _layers(traced: list[dict], plain: list[dict]):
    """Per-layer medians over traced samples, and the exact-count check."""
    def span_value(sample, span, field):
        return sample["layers"].get(span, {}).get(field, 0)

    per_layer = {metric: _median([span_value(s, span, field) for s in traced])
                 for metric, _unit, span, field in LAYER_SPANS}
    # Counts are exact: each must read the same in every traced sample.
    exact = [(metric, lambda s, m=metric: s["counts"].get(m, 0))
             for metric, _unit in LAYER_COUNTS]
    exact += [(metric, lambda s, sp=span: span_value(s, sp, "calls"))
              for metric, _unit, span, field in LAYER_SPANS if field == "calls"]
    problems = []
    for metric, read in exact:
        values = sorted({read(s) for s in traced})
        if len(values) != 1:
            problems.append(f"{metric} differs across traced samples: {values}")
        per_layer[metric] = values[0]
    per_layer["trace.overhead_s"] = (
        _median([s["sweep_s"] for s in traced]) - _median([s["sweep_s"] for s in plain]))
    sweep = per_layer["sweep.run_sweep.s"]
    shares = {
        "capacity.mu_sum_capacity.s": per_layer["capacity.mu_sum_capacity.s"] / sweep,
        "lattice.build_lattice.s": per_layer["lattice.build_lattice.s"] / sweep,
        "synthesis.sample_channel.s+capacity.su_capacity.s":
            (per_layer["synthesis.sample_channel.s"]
             + per_layer["capacity.su_capacity.s"]) / sweep,
    }
    return per_layer, shares, problems


def metric_units(trace: bool) -> dict:
    if not trace:
        return dict(END_TO_END_UNITS)
    units = {metric: unit for metric, unit, _span, _field in LAYER_SPANS}
    units.update(LAYER_COUNTS)
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------- provenance


def _blas() -> dict:
    """BLAS library and its thread count as numpy loaded it (not overridden)."""
    import ctypes

    import numpy

    info = {"numpy": numpy.__version__}
    config = getattr(getattr(numpy, "__config__", None), "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    info["blas"] = blas.get("name")
    info["blas_version"] = blas.get("version")
    info["blas_threads_env"] = {k: os.environ[k] for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    info["blas_threads"] = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for lib_path in libs:
            lib = ctypes.CDLL(lib_path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    info["blas_threads"] = getter()
                    return info
    except OSError:
        pass
    return info


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def provenance() -> dict:
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **_blas(),
    }


# ---------------------------------------------------------------- main


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 reference: dict, machine: dict) -> dict:
    spec = WORKLOADS[name]
    measured = measure(name, seed, seconds, trace, size, reference)
    values = measured["per_layer"] if trace else measured["end_to_end"]
    units = metric_units(trace)
    metrics = {m: {"value": values[m], "unit": u} for m, u in units.items()}
    result = {
        "correct": not measured["problems"],
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }
    detail = {
        **result,
        "workload": name,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "trace": int(trace),
        "realizations": spec["realizations"][size],
        "spacings": list(spec["spacings"]),
        "users": spec["users"],
        "failed_frac": measured["failed"] / measured["attempted"],
        **{k: v for k, v in measured.items() if k != "per_layer"},
        "provenance": machine,
    }
    out = RESULTS / f"{name}-seed{seed}-{size}-trace{int(trace)}.json"
    out.write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")

    print(f"# {name}: seed {seed}, {spec['realizations'][size]} realizations x "
          f"{len(spec['spacings'])} spacings, {measured['samples']} samples, "
          f"trace {int(trace)}")
    for metric, entry in metrics.items():
        print(f"{name}  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"{name}  failed_frac = {detail['failed_frac']:.6g} "
          f"({measured['failed']}/{measured['attempted']} solves)")
    for label, share in measured.get("shares", {}).items():
        print(f"{name}  share of sweep: {label} = {100 * share:.1f} %")
    for problem in measured["problems"]:
        print(f"{name}  FAILED: {problem}")
    print(f"{name}  result file: {out.relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes (1 realization; 10 for fig3-cdlb)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    size = "smoke" if args.smoke else "full"
    trace = bool(args.trace)

    try:
        if not (SRC / "holomimo" / "cli.py").is_file():
            raise BenchError(f"program source not found under {SRC}")
        RESULTS.mkdir(exist_ok=True)
        reference = load_reference()
        machine = provenance()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: run_workload(name, args.seed, args.seconds, trace, size,
                                      reference, machine) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
