"""Thread count of numpy's bundled OpenBLAS, read and set through ctypes.

The fits solve 33 x 33 normal systems and multiply N x 33 matrices. At
that size a second BLAS thread buys nothing, yet OpenBLAS busy-waits it
between calls, so a serial fit burns about two CPU-seconds per wall
second and pool workers crowd each other off the cores. The batch
pipeline therefore runs every fit on one thread; see ``single_thread``.

Only the OpenBLAS that numpy wheels bundle under ``numpy.libs`` is looked
for. When it is absent (another BLAS, or a numpy built from source) every
function here does nothing and reports ``None``.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from contextlib import contextmanager

import numpy as np

# (get, set) symbol pairs, newest bundling first
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _controls():
    """The (get, set) functions of numpy's OpenBLAS, or None if not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)  # the copy numpy already loaded
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes = []
                get.restype = ctypes.c_int
                set_.argtypes = [ctypes.c_int]
                set_.restype = None
                return get, set_
    return None


def get_threads():
    """Current OpenBLAS thread count, or None without thread control."""
    controls = _controls()
    return None if controls is None else int(controls[0]())


def set_threads(n):
    """Set the OpenBLAS thread count; a no-op without thread control.

    Module-level so that a process pool can take it as its initializer.
    """
    controls = _controls()
    if controls is not None:
        controls[1](int(n))


@contextmanager
def single_thread():
    """Run the block on one OpenBLAS thread, then restore the caller's count.

    Yields the count the block runs with: 1, or None without thread control.
    """
    previous = get_threads()
    if previous is None:
        yield None
        return
    set_threads(1)
    try:
        yield get_threads()
    finally:
        set_threads(previous)
