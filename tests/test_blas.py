import ctypes
import os
import subprocess
import sys
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


def run_child(code, **env_changes):
    """Runs ``code`` in a fresh interpreter that imports this checkout's
    package; ``None`` removes a variable. Returns its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(blas.__file__).resolve().parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p])
    for key, value in env_changes.items():
        env.pop(key, None)
        if value is not None:
            env[key] = value
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120).stdout


# prints the timeout when numpy is first looked up, then after the import
TIMEOUT_AT_NUMPY = """
import os, sys

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None

sys.meta_path.insert(0, Watch())
import pemplate.cli
print(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
"""


@pytest.mark.parametrize("user, expect", [(None, "20"), ("28", "28")])
def test_cli_sets_thread_timeout_before_numpy_loads(user, expect):
    # OpenBLAS reads the variable when its library loads, so it must be set
    # when numpy is first imported; a value the user set is kept
    lines = run_child(TIMEOUT_AT_NUMPY, OPENBLAS_THREAD_TIMEOUT=user).split()
    assert lines == [expect, expect]


# CPU of every thread but the main one, while the main thread runs pure
# Python for 0.3 s after one threaded dense solve
IDLE_WORKERS = """
import os, threading, time
import pemplate.cli
import numpy as np
import scipy.linalg as sla

def others_cpu():
    main, total = threading.get_native_id(), 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != main:
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rpartition(")")[2].split()
            total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / os.sysconf("SC_CLK_TCK")

a = np.random.default_rng(0).standard_normal((800, 800))
k, m = a @ a.T + 800 * np.eye(800), np.eye(800) + 1e-4
before = others_cpu()
sla.eigh(k, m)
start = others_cpu()
t0 = time.perf_counter()
while time.perf_counter() - t0 < 0.3:
    pass
print(start - before, others_cpu() - start)
"""


def test_idle_blas_workers_sleep():
    if not sys.platform.startswith("linux"):
        pytest.skip("reads per-thread CPU from /proc")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: OpenBLAS starts no worker thread")
    if blas._scipy_openblas() is None:
        pytest.skip("scipy's BLAS is not scipy-openblas")
    solve, idle = map(float, run_child(
        IDLE_WORKERS, OPENBLAS_THREAD_TIMEOUT=None,
        OPENBLAS_NUM_THREADS=None).split())
    assert solve > 0.0, "the dense solve ran on one thread"
    # OpenBLAS's built-in timeout spins the worker for ~0.13 s here
    assert idle < 0.03
