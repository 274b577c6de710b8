"""One OpenBLAS thread per process; the ``holomimo`` docstring says why."""

import ctypes
import os
import sys


def one_blas_thread() -> None:
    """Import numpy under OPENBLAS_NUM_THREADS=1, then put ``os.environ``
    back as found; once numpy is loaded, call its exported thread-count
    setter instead (a no-op where the library exports none)."""
    if "numpy" not in sys.modules:
        found = os.environ.get("OPENBLAS_NUM_THREADS")
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy  # noqa: F401
        finally:
            if found is None:
                del os.environ["OPENBLAS_NUM_THREADS"]
            else:
                os.environ["OPENBLAS_NUM_THREADS"] = found
        return
    try:
        from numpy.linalg import _umath_linalg

        setter = ctypes.CDLL(_umath_linalg.__file__).scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    setter(1)
