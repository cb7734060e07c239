"""How cordseg's own worker threads share the cores with OpenBLAS.

Tile inference runs on a pool of cordseg's own threads.  While several of
them run GEMMs at once, an OpenBLAS that also asks for every core only
spins on cores the other workers use, so for the length of such a
parallel section the OpenBLAS that numpy loaded gets cores // workers
threads (at least one), and gets its old count back afterwards.  Outside
those sections, and for a single worker, the BLAS keeps its own count.

OpenBLAS reads OPENBLAS_NUM_THREADS when it loads, so the count goes
through its run-time setter, which works whatever imported numpy first.  A
count the user chose with OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is left
alone, and so is a process with no OpenBLAS, no setter or no /proc; the
default pool then shrinks to the cores that count leaves per worker.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from functools import cache

# (set, get) thread-count symbols of the OpenBLAS builds numpy ships, newest first
_SYMBOLS = tuple((f"{prefix}openblas_set_num_threads{suffix}",
                  f"{prefix}openblas_get_num_threads{suffix}")
                 for prefix in ("scipy_", "") for suffix in ("64_", ""))


# the variables through which a user sets the BLAS thread count, in the
# order OpenBLAS reads them
_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# OpenBLAS's thread count is one per process, so are these: the parallel
# sections now open, and the count the last of them to close restores
_lock = threading.Lock()
_open_sections = 0
_restore_count = 0


def available_cores() -> int:
    """CPUs this process may run on; the host count where affinity is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def default_workers() -> int:
    """Tile workers when the caller names no count: one per available core,
    or cores // b (at least one) when the user set the BLAS thread count b
    (read as OpenBLAS reads it), so that workers times BLAS threads do not
    exceed the cores."""
    value = next((os.environ[name] for name in _BLAS_VARIABLES if name in os.environ), "")
    return max(1, available_cores() // (int(value) if value.isdigit() and int(value) else 1))


@cache
def _openblas():
    """(set, get) thread-count functions of numpy's OpenBLAS, or None."""
    import numpy  # noqa: F401  (loads the library to look for)

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


@contextmanager
def share_cores(workers: int):
    """Run the enclosed section, in which workers threads of cordseg's own run
    GEMMs at once, with OpenBLAS on cores // workers threads (at least one);
    restore its count on exit.  A single worker changes nothing.  Sections
    may overlap, from one thread or several: the first to open sets the
    count and the last to close restores it."""
    global _open_sections, _restore_count
    user_set = any(name in os.environ for name in _BLAS_VARIABLES)
    blas = None if workers < 2 or user_set else _openblas()
    if blas is None:
        yield
        return
    setter, getter = blas
    with _lock:
        if _open_sections == 0:
            _restore_count = getter()
            setter(max(1, available_cores() // workers))
        _open_sections += 1
    try:
        yield
    finally:
        with _lock:
            _open_sections -= 1
            if _open_sections == 0:
                setter(_restore_count)
