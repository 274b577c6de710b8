"""Record the correctness gate's reference rows at the default seed.

    python3 perfbench/record_reference.py

Runs every workload once per size (full, smoke, and the larger "band" run
whose mean and std set the statistical band for other seeds) and writes
perfbench/reference.json.  Re-record only when a change is meant to alter
the program's results, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.RESULTS.mkdir(exist_ok=True)
    workloads = {}
    for name, spec in run.WORKLOADS.items():
        workloads[name] = {}
        for size in spec["realizations"]:
            args = run.holo_args(name, run.DEFAULT_SEED, size)
            sample = run.run_sample(args, False, f"{name}-reference-{size}", 600.0)
            if not sample["ok"]:
                print(f"error: {name} {size}: {sample['error']}", file=sys.stderr)
                return 1
            if any(r["not_converged"] for r in sample["rows"]):
                print(f"error: {name} {size}: solver did not converge", file=sys.stderr)
                return 1
            workloads[name][size] = {
                "realizations": spec["realizations"][size],
                "rows": [{k: r[k] for k in ("spacing_wl", "mean_bits", "std_bits")}
                         for r in sample["rows"]],
            }
            print(f"{name} {size}: {workloads[name][size]['rows']}")
    reference = {
        "seed": run.DEFAULT_SEED,
        "git_sha": run._git_sha(),
        "source_sha256": run._source_digest(),
        "workloads": workloads,
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
