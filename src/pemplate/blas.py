"""numpy's or scipy's OpenBLAS on one thread for the length of a block.

numpy and scipy load separate OpenBLAS copies. numpy's serves small
products: the RK4 blocks of a simulation and the search, and assembly's
element batches. At its default thread count each such product wakes a
helper thread that mostly spins, so :func:`pemplate.cli.main` pins numpy's
copy to one thread for the length of a run. On clamped-demo the simulation
and the search took 0.17 s wall and 0.30 s CPU pinned, against 0.24 s and
0.46 s at two threads (medians of 11, on a 2-CPU machine). numpy's thread
count moves no output bit.

scipy's copy serves the eigensolvers. The sparse shift-invert solve spends
its time in ARPACK's level-1/2 calls and SuperLU's triangular solves, where
a second thread only spins, and its results depend on the thread count. So
scipy's copy is pinned to one thread for each sparse solve, which makes
that solve's output independent of the thread count. The dense solve
keeps the default thread count: it gains wall time from the second thread.

An idle worker of either copy spins for 2**OPENBLAS_THREAD_TIMEOUT TSC
ticks before it sleeps, once after its library loads and again after each
threaded call. At OpenBLAS's built-in 28 (0.13 s at 2.1 GHz) numpy's worker,
which does no work in a run, spun 0.13 s, and scipy's spun 0.32 s on
clamped-demo; on paper-square scipy's read 0.59 s, 0.31 s of it the dense
solve's work. :mod:`pemplate.cli` sets the variable to 20 (0.5 ms) before
numpy loads, unless the user set it, and the workers then read 0.001 s and
0.03 s (0.31 s on paper-square). The timeout moves no work between threads,
so no output bit moves with it.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
from contextlib import contextmanager
from pathlib import Path


@functools.cache
def _openblas(package, suffix):
    """Thread-count (get, set) of a package's scipy-openblas, or None.

    The wheels keep the library in ``<package>.libs`` (Linux, Windows) or
    ``<package>/.dylibs`` (macOS); its exported names end in ``suffix``
    ("64_" for numpy's ILP64 build, "" for scipy's). Loading it again gives
    the copy the package already loaded.
    """
    root = Path(importlib.import_module(package).__file__).parent
    for folder in (root.parent / f"{package}.libs", root / ".dylibs"):
        for path in sorted(folder.glob(f"libscipy_openblas{suffix}*")):
            try:
                lib = ctypes.CDLL(str(path))
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def _numpy_openblas():
    return _openblas("numpy", "64_")


def _scipy_openblas():
    return _openblas("scipy", "")


@contextmanager
def _single_thread(lib):
    if lib is None:
        yield False
        return
    get, set_ = lib
    previous = get()
    set_(1)
    try:
        yield True
    finally:
        set_(previous)


def numpy_blas_single_thread():
    """Run the block with numpy's OpenBLAS on one thread.

    Yields whether the thread count could be set; where numpy's BLAS is not
    a scipy-openblas library (e.g. Accelerate) nothing changes and it yields
    False. The previous thread count is restored on exit.
    """
    return _single_thread(_numpy_openblas())


def scipy_blas_single_thread():
    """:func:`numpy_blas_single_thread` for scipy's OpenBLAS."""
    return _single_thread(_scipy_openblas())
