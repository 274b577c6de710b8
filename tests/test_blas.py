"""Importing holomimo runs numpy's OpenBLAS on one thread: numpy loaded by
the import starts no BLAS worker, numpy loaded before it is set to one
thread, and ``os.environ`` is left as found."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import Mock

import pytest

import holomimo
from holomimo import _blas

PACKAGE_ROOT = str(Path(holomimo.__file__).resolve().parents[1])

# Shared by the child scripts: numpy's OpenBLAS thread count, or exit 3
# where the library exports no getter.
BLAS_THREADS = """
import ctypes, os, sys

def blas_threads():
    from numpy.linalg import _umath_linalg
    try:
        getter = ctypes.CDLL(_umath_linalg.__file__).scipy_openblas_get_num_threads64_
    except AttributeError:
        sys.exit(3)
    getter.restype = ctypes.c_int
    return getter()

def tasks():
    return len(os.listdir("/proc/self/task")) if sys.platform == "linux" else 1
"""


def run_child(args, threads):
    """Run a fresh interpreter with OPENBLAS_NUM_THREADS set to ``threads``,
    or unset for None; skip where the library exports no getter."""
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=300)
    if proc.returncode == 3:
        pytest.skip("numpy's BLAS exports no scipy_openblas thread getter")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_one_blas_thread_sets_one_thread_where_the_setter_exists(monkeypatch):
    # numpy is loaded here, so the exported setter is the only way.
    setter = Mock()
    library = SimpleNamespace(scipy_openblas_set_num_threads64_=setter)
    monkeypatch.setattr(_blas.ctypes, "CDLL", lambda path: library)
    _blas.one_blas_thread()
    setter.assert_called_once_with(1)
    assert setter.argtypes == [ctypes.c_int]


@pytest.mark.parametrize("missing", [AttributeError, OSError])
def test_one_blas_thread_is_a_no_op_without_the_setter(monkeypatch, missing):
    def unavailable(path):
        if missing is OSError:
            raise OSError(f"cannot load {path}")
        return object()

    monkeypatch.setattr(_blas.ctypes, "CDLL", unavailable)
    _blas.one_blas_thread()


@pytest.mark.parametrize("threads", ["2", "", None])
def test_importing_holomimo_before_numpy_starts_no_blas_worker(threads):
    # OPENBLAS_NUM_THREADS=2, or empty or unset on a host with two or more
    # cores, would start BLAS workers as numpy loads.  The process keeps one
    # thread through a sweep and finds os.environ as it was, in order.
    script = BLAS_THREADS + """
import contextlib, io
environ = list(os.environ.items())
import holomimo.cli
print(tasks(), blas_threads(), list(os.environ.items()) == environ)
with contextlib.redirect_stdout(io.StringIO()):
    code = holomimo.cli.main(["sweep", "--preset", "fig3-isotropic", "--realizations", "1"])
print(code, tasks(), blas_threads())
"""
    assert run_child(["-c", script], threads)[-6:] == ["1", "1", "True", "0", "1", "1"]


def test_holo_runs_numpys_openblas_on_one_thread():
    # numpy loaded first with two BLAS threads is set to one by the import.
    script = BLAS_THREADS + """
before = blas_threads()
import holomimo
after_import = blas_threads()
from holomimo.cli import main
main(["sweep", "--preset", "fig3-isotropic", "--realizations", "1"])
print(before, after_import, blas_threads())
"""
    assert run_child(["-c", script], "2")[-3:] == ["2", "1", "1"]


def test_a_spawned_pool_worker_that_imports_holomimo_runs_one_blas_thread(tmp_path):
    # A spawned worker starts from a fresh interpreter with the parent's
    # environment, OPENBLAS_NUM_THREADS=2, and pins itself on import.
    script = tmp_path / "spawned.py"
    script.write_text(BLAS_THREADS + """
def worker():
    import holomimo
    return tasks(), blas_threads()

if __name__ == "__main__":
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        print(*pool.submit(worker).result())
""")
    assert run_child([str(script)], "2")[-2:] == ["1", "1"]
