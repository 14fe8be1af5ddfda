"""numpy's OpenBLAS on one thread for the length of a block.

numpy and scipy load separate OpenBLAS copies. Assembly runs its element
batches on a thread pool, and the products in a batch are small: with
numpy's copy at its default thread count, each wakes a helper thread that
mostly spins, and concurrent threaded calls from the pool are serialized.
So numpy's copy is pinned to one thread for the length of a run. Its thread count moves no output bit.
scipy's copy, which the eigensolvers use, stays at its default, because
the eigensolvers' results depend on it.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from pathlib import Path

import numpy as np


@functools.cache
def _numpy_openblas():
    """Thread-count (get, set) of numpy's scipy-openblas, or None if absent.

    numpy's wheels keep the library in ``numpy.libs`` (Linux, Windows) or
    ``numpy/.dylibs`` (macOS). Loading it again gives the copy numpy
    already loaded.
    """
    package = Path(np.__file__).parent
    for folder in (package.parent / "numpy.libs", package / ".dylibs"):
        for path in sorted(folder.glob("libscipy_openblas64_*")):
            try:
                lib = ctypes.CDLL(str(path))
                get = lib.scipy_openblas_get_num_threads64_
                set_ = lib.scipy_openblas_set_num_threads64_
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def numpy_blas_single_thread():
    """Run the block with numpy's OpenBLAS on one thread.

    Yields whether the thread count could be set; where numpy's BLAS is not
    a scipy-openblas library (e.g. Accelerate) nothing changes and it yields
    False. The previous thread count is restored on exit.
    """
    lib = _numpy_openblas()
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
