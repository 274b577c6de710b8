"""Run one ``holo`` command in this process and record where its time went.

Usage (run.py starts this; PYTHONPATH must reach ``src``)::

    python3 perfbench/child.py RECORD_JSON TRACE -- HOLO_ARGS...

The command runs exactly as the ``holo`` console script would, through
``holomimo.cli.main``.  The only additions sit outside the program:

* A marker around the CLI's sweep entry points notes when the sweep starts
  and ends (``time.monotonic``, which shares its clock with the parent, so
  the parent can measure launch-to-sweep set-up time), and the process CPU
  time over the sweep, all threads included.
* With TRACE=1, the public functions of every holomimo layer are wrapped
  at their call sites, i.e. the module attributes the callers look up
  (``holomimo.sweep.build_plan``, ``holomimo.synthesis.build_lattice``,
  ``holomimo.lattice.spectrum_value``, ...).  Each call becomes one span
  (name, start, end, parent) kept in memory, and exact work counts are
  taken from the arguments and results.  Spans are written next to the
  record when the command ends.

The record is JSON: exit code, sweep start/end, sweep CPU seconds, peak
resident memory, and with tracing the per-span-name calls, inclusive and
self seconds, and the counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _points(args, kwargs, result):
    import numpy as np

    elevation = args[1] if len(args) > 1 else kwargs["elevation"]
    azimuth = args[2] if len(args) > 2 else kwargs["azimuth"]
    return {"spectrum.spectrum_value.points":
            np.broadcast(np.asarray(elevation), np.asarray(azimuth)).size}


def _cells(args, kwargs, result):
    return {"lattice.cells": len(result.indices)}


def _channel_bytes(args, kwargs, result):
    # Computed from the matrix shape and dtype, not measured traffic.
    return {"synthesis.sample_channel.bytes": result.matrix.nbytes}


def _solver(args, kwargs, result):
    return {
        "capacity.mu_sum_capacity.iterations": result.iterations,
        "capacity.mu_sum_capacity.not_converged": int(not result.converged),
    }


# (module, attribute, span name, count extractor).  An attribute a later
# version of the program no longer has is skipped; its metrics then read 0.
TRACED = (
    ("holomimo.cli", "preset", "config.resolve", None),
    ("holomimo.cli", "load_config", "config.resolve", None),
    ("holomimo.cli", "render", "cli.render", None),
    ("holomimo.cli", "run_sweep", "sweep.run_sweep", None),
    ("holomimo.cli", "run_single_user_sweep", "sweep.run_sweep", None),
    ("holomimo.cli", "run_multi_user_sweep", "sweep.run_sweep", None),
    ("holomimo.sweep", "run_single_user_sweep", "sweep.run_sweep", None),
    ("holomimo.sweep", "run_multi_user_sweep", "sweep.run_sweep", None),
    ("holomimo.sweep", "rotate_spectrum", "spectrum.rotate_spectrum", None),
    ("holomimo.sweep", "build_planar_array", "geometry.build_planar_array", None),
    ("holomimo.sweep", "build_coupling_profile",
     "coupling.build_coupling_profile", None),
    ("holomimo.sweep", "build_lattice", "lattice.build_lattice", _cells),
    ("holomimo.sweep", "build_plan", "synthesis.build_plan", None),
    ("holomimo.sweep", "sample_channel", "synthesis.sample_channel", _channel_bytes),
    ("holomimo.sweep", "drop_users", "capacity.drop_users", None),
    ("holomimo.sweep", "su_capacity", "capacity.su_capacity", None),
    ("holomimo.sweep", "mu_sum_capacity", "capacity.mu_sum_capacity", _solver),
    ("holomimo.synthesis", "build_lattice", "lattice.build_lattice", _cells),
    ("holomimo.lattice", "spectrum_value", "spectrum.spectrum_value", _points),
)

SWEEP_ENTRY_POINTS = ("run_sweep", "run_single_user_sweep", "run_multi_user_sweep")


class Tracer:
    """In-memory span recorder; one span per wrapped call."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            return
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            # The same layer call reached through a second alias (the CLI's
            # run_sweep calling the sweep module's run_single_user_sweep)
            # stays one span.
            if stack and tracer.names[stack[-1]] == name:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.ends.append(0.0)
            stack.append(idx)
            tracer.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter()
                stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    tracer.counts[key] = tracer.counts.get(key, 0) + int(value)
            return result

        setattr(module, attr, traced)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child_time = [0.0] * len(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += durations[idx]
        out: dict[str, dict] = {}
        for idx, name in enumerate(self.names):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += durations[idx]
            entry["self_s"] += durations[idx] - child_time[idx]
        return out

    def write_spans(self, path: str) -> None:
        names = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(names)}
        spans = [
            [ids[n], p, round(s, 9), round(e, 9)]
            for n, p, s, e in zip(self.names, self.parents, self.starts, self.ends)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "fields": ["name", "parent", "start_s", "end_s"],
                       "spans": spans}, fh, separators=(",", ":"))


def _mark_sweep(cli, record: dict) -> None:
    """Note start/end time and CPU of the outermost sweep call."""
    depth = [0]

    def marker(fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            depth[0] += 1
            if depth[0] == 1:
                record["sweep_start"] = time.monotonic()
                cpu0 = _cpu_s()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    record["sweep_end"] = time.monotonic()
                    record["sweep_cpu_s"] = _cpu_s() - cpu0

        return marked

    for attr in SWEEP_ENTRY_POINTS:
        if hasattr(cli, attr):
            setattr(cli, attr, marker(getattr(cli, attr)))


def main(argv: list[str]) -> int:
    record_path, trace = argv[0], argv[1] == "1"
    if argv[2] != "--":
        raise SystemExit("usage: child.py RECORD_JSON TRACE -- HOLO_ARGS...")
    holo_args = argv[3:]

    import holomimo.cli as cli

    record: dict = {"trace": trace}
    tracer = None
    if trace:
        tracer = Tracer()
        for module_name, attr, name, count in TRACED:
            tracer.wrap(importlib.import_module(module_name), attr, name, count)
    _mark_sweep(cli, record)

    code = cli.main(holo_args)
    sys.stdout.flush()
    record["exit_code"] = code
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        record["layers"] = tracer.summary()
        record["counts"] = tracer.counts
        tracer.write_spans(record_path[: -len(".json")] + ".spans.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
