import ctypes
from pathlib import Path

import numpy as np
import pytest
import scipy

from pemplate import blas


class FakeOpenblas:
    def __init__(self, threads):
        self.threads = threads

    def get(self):
        return self.threads

    def set(self, n):
        self.threads = n


def numpy_openblas_or_skip():
    lib = blas._numpy_openblas()
    if lib is None:
        pytest.skip("numpy's BLAS is not scipy-openblas")
    return lib


def scipy_openblas_threads():
    """scipy's own OpenBLAS thread count, or None where there is none."""
    folder = Path(scipy.__file__).parent.parent / "scipy.libs"
    for path in sorted(folder.glob("libscipy_openblas-*")):
        get = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads
        get.argtypes, get.restype = [], ctypes.c_int
        return get()
    return None


def check_restores(monkeypatch, loader, pinner):
    fake = FakeOpenblas(threads=3)
    monkeypatch.setattr(blas, loader, lambda: (fake.get, fake.set))
    with pinner() as pinned:
        assert pinned and fake.threads == 1
    assert fake.threads == 3
    with pytest.raises(KeyError):
        with pinner():
            assert fake.threads == 1
            raise KeyError("inside")
    assert fake.threads == 3


def test_restores_thread_count_on_exit_and_on_error(monkeypatch):
    check_restores(monkeypatch, "_numpy_openblas",
                   blas.numpy_blas_single_thread)


def test_scipy_pin_restores_thread_count_on_exit_and_on_error(monkeypatch):
    check_restores(monkeypatch, "_scipy_openblas",
                   blas.scipy_blas_single_thread)


def test_no_scipy_library_changes_nothing(monkeypatch):
    monkeypatch.setattr(blas, "_scipy_openblas", lambda: None)
    with blas.scipy_blas_single_thread() as pinned:
        assert not pinned


def test_pins_numpy_blas_and_leaves_scipy_blas():
    get, set_ = numpy_openblas_or_skip()
    before = get()
    scipy_before = scipy_openblas_threads()
    set_(2)
    try:
        with blas.numpy_blas_single_thread():
            assert get() == 1
            assert scipy_openblas_threads() == scipy_before
        assert get() == 2
    finally:
        set_(before)


def test_pins_scipy_blas_and_leaves_numpy_blas():
    lib = blas._scipy_openblas()
    if lib is None:
        pytest.skip("scipy's BLAS is not scipy-openblas")
    get, set_ = lib
    numpy_get, _ = numpy_openblas_or_skip()
    before = get()
    numpy_before = numpy_get()
    set_(2)
    try:
        with blas.scipy_blas_single_thread():
            assert get() == 1 and scipy_openblas_threads() == 1
            assert numpy_get() == numpy_before
        assert get() == 2
    finally:
        set_(before)


def test_no_numpy_library_changes_nothing(monkeypatch):
    monkeypatch.setattr(blas, "_numpy_openblas", lambda: None)
    with blas.numpy_blas_single_thread() as pinned:
        assert not pinned


def test_finds_the_library_numpy_names():
    # a renamed wheel library must fail here, not silently leave numpy's
    # BLAS at its default thread count for the run
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy without build-config dicts
        pytest.skip("numpy.show_config has no dict mode")
    name = config["Build Dependencies"]["blas"]["name"]
    if name != "scipy-openblas":
        pytest.skip(f"numpy's BLAS is {name}")
    assert blas._numpy_openblas() is not None


def test_finds_the_library_scipy_names():
    # a renamed wheel library must fail here, not silently leave the sparse
    # eigensolves unpinned
    try:
        config = scipy.show_config(mode="dicts")
    except TypeError:  # scipy without build-config dicts
        pytest.skip("scipy.show_config has no dict mode")
    name = config["Build Dependencies"]["blas"]["name"]
    if name != "scipy-openblas":
        pytest.skip(f"scipy's BLAS is {name}")
    assert blas._scipy_openblas() is not None
