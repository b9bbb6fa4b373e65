"""Thread count of the OpenBLAS bundled with numpy's wheels, read and set
through ctypes: numpy has no thread control of its own."""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np


def _openblas() -> ctypes.CDLL | None:
    """The OpenBLAS bundled with numpy's wheels, or None for another BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    path = next(libs.glob("libscipy_openblas64_*.so"), None)
    if path is None:
        return None
    lib = ctypes.CDLL(str(path))  # the copy numpy already loaded
    lib.scipy_openblas_get_num_threads64_.argtypes = []
    lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    lib.scipy_openblas_set_num_threads64_.restype = None
    return lib


def blas_threads() -> int | None:
    """numpy's OpenBLAS thread count, or None if numpy uses another BLAS."""
    lib = _openblas()
    return None if lib is None else lib.scipy_openblas_get_num_threads64_()


def set_blas_threads(n: int) -> None:
    """Run numpy's OpenBLAS at n threads in this process."""
    lib = _openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(n)
