"""How cordseg's worker processes share the cores with OpenBLAS: the forked
helpers that run beside the main process, and the runs that split work
between them.

Training, evaluation and tile inference each take their worker count from
one rule (see `workers`), fork that many less one helpers beside the main
process for one with-block (see `helpers`), and split their work with the
one call it yields; without os.fork there is one worker, and every task
runs in the main process.  While several workers run GEMMs at once, an
OpenBLAS that also asks for every core only spins on cores the other
workers use, so in such a parallel section each process's OpenBLAS gets
cores // workers threads (at least one): the main process takes its share
before the helpers fork, they inherit it, and it gets its old count back
afterwards.  Outside those sections, and for a single worker, the BLAS
keeps its own count.

OpenBLAS reads its thread variables when it loads, so the count goes
through its run-time setter, which works whatever imported numpy first.  A
count the user chose through those variables is left alone, and so is a
process with no OpenBLAS, no setter or no /proc; the default worker count
then shrinks to the cores that count leaves per worker.
"""

from __future__ import annotations

import ctypes
import mmap
import os
import re
import signal
from collections.abc import Callable
from contextlib import contextmanager
from functools import cache
from typing import NoReturn

import numpy as np

from .errors import DomainError

# (set, get) thread-count symbols of the OpenBLAS builds numpy ships, newest first
_SYMBOLS = tuple((f"{prefix}openblas_set_num_threads{suffix}",
                  f"{prefix}openblas_get_num_threads{suffix}")
                 for prefix in ("scipy_", "") for suffix in ("64_", ""))


# the variables through which a user sets the BLAS thread count, in the
# order OpenBLAS reads them, and the leading integer C's atoi reads from each
_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_LEADING_INT = re.compile(r"\s*([+-]?\d+)", re.ASCII)

# mallopt's parameter for the free bytes kept at the top of the heap, in glibc
_M_TOP_PAD = -2


def available_cores() -> int:
    """CPUs this process may run on; the host count where affinity is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _user_blas_threads() -> int | None:
    """The BLAS thread count the user set, read as OpenBLAS reads it: the
    first variable whose leading integer is positive; None when none is."""
    for name in _BLAS_VARIABLES:
        match = _LEADING_INT.match(os.environ.get(name, ""))
        if match and int(match[1]) > 0:
            return int(match[1])
    return None


def workers(wanted: int | None = None) -> int:
    """Worker processes for one parallel loop (training, evaluation or
    tiles): wanted, or by default one per available core, or cores // b
    (at least one) when the user set the BLAS thread count b, so that
    workers times BLAS threads do not exceed the cores; never more than
    the available cores, and 1, the calling process alone, where there is
    no os.fork.  A wanted count below 1 raises DomainError."""
    if wanted is not None and wanted < 1:
        raise DomainError(f"worker count must be at least 1, got {wanted}")
    if not hasattr(os, "fork"):
        return 1
    cores = available_cores()
    if wanted is None:
        return max(1, cores // (_user_blas_threads() or 1))
    return min(wanted, cores)


@cache
def _openblas():
    """(set, get) thread-count functions of numpy's OpenBLAS, or None."""
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
    """Run the enclosed section, in which workers processes of cordseg's own
    run GEMMs at once, with this process's OpenBLAS on cores // workers
    threads (at least one); restore the count it had on exit, so nested
    sections restore in turn.  A single worker changes nothing."""
    blas = None if workers < 2 or _user_blas_threads() else _openblas()
    if blas is None:
        yield
        return
    setter, getter = blas
    restore = getter()
    setter(max(1, available_cores() // workers))
    try:
        yield
    finally:
        setter(restore)


def runs(count: int, workers: int, unit: int = 1) -> list[slice]:
    """range(count) cut into contiguous runs of whole units, at most one per
    worker: every run but the last spans ceil(count / (unit * workers))
    units, so fewer units than workers leave the last workers none."""
    span = max(1, -(-count // (unit * workers))) * unit
    return [slice(start, start + span) for start in range(0, count, span)]


def shared_array(shape: tuple, dtype) -> np.ndarray:
    """A zeroed array in an anonymous MAP_SHARED mapping: processes forked
    after it is made read and write the same pages."""
    return np.frombuffer(mmap.mmap(-1, int(np.prod(shape)) * np.dtype(dtype).itemsize),
                         dtype).reshape(shape)


@contextmanager
def helpers(count: int, work: Callable[[int, object], object]):
    """Fork count helper processes for the with-block, each serving tasks
    sent to it over its own pipe: helper i replies to a task with
    work(i, task), or with the exception that raised, which the yielded
    map_tasks re-raises in the caller with its type and message.  Only
    tasks and replies are pickled; arrays in a shared_array made before
    the block are seen by both sides.  The caller takes its
    share_cores(count + 1) share before the first fork, and each helper
    inherits it there; a helper ends in os._exit, never returning into the
    caller's code, at EOF on its pipe.  Nothing forks before the block is
    entered.  Leaving it, by an exception or not (KeyboardInterrupt during
    a fork too), closes every pipe, kills and reaps every helper, each idle
    unless an exception cut a map_tasks short, and restores the caller's count.
    """
    pids, pipes = [], []

    def map_tasks(local: Callable[[object], object], tasks: list) -> list:
        """Run local(tasks[0]) here and tasks[1:] on helpers 0, 1, ...: the
        replies in task order; raises a task's exception, IndexError past the helpers."""
        for index, task in enumerate(tasks[1:]):
            pipes[index].send(task)
        replies = [local(tasks[0])]
        for pid, pipe in zip(pids, pipes[:len(tasks) - 1]):
            try:
                ok, value = pipe.recv()
            except EOFError:
                raise ChildProcessError(f"helper {pid} ended without replying") from None
            if not ok:
                raise value
            replies.append(value)
        return replies

    with share_cores(count + 1):
        try:
            if count > 0:
                from multiprocessing.connection import Pipe  # only where helpers run
            for index in range(count):
                mine, theirs = Pipe()
                pipes.append(mine)
                pid = os.fork()
                if pid == 0:
                    _serve(theirs, pipes, index, work)
                pids.append(pid)
                theirs.close()
            yield map_tasks
        finally:
            for pipe in pipes:
                pipe.close()
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _serve(pipe, inherited, index: int, work) -> NoReturn:
    """A helper's whole life: close the caller's ends of the pipes, so each
    helper reads EOF once the caller closes its end, then reply to each
    task until EOF, then os._exit."""
    code = 1
    try:
        for other in inherited:
            other.close()
        _keep_freed_heap()
        while True:
            try:
                task = pipe.recv()
            except EOFError:
                code = 0
                break
            try:
                reply = True, work(index, task)
            except BaseException as exc:  # MemoryError too: the caller re-raises it
                reply = False, exc
            pipe.send(reply)
    finally:
        os._exit(code)


def _keep_freed_heap() -> None:
    """Have glibc keep 64 MiB of freed memory at the top of this process's
    heap.  A helper frees every buffer of a task when the task ends, so the
    top of its heap is free between tasks; glibc would give it back to the
    kernel and fault it in again on the next task, about 1.4k minor faults
    a shard at the acceptance config, against none in the main process."""
    libc = ctypes.CDLL(None)
    if hasattr(libc, "mallopt"):
        libc.mallopt.argtypes, libc.mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        libc.mallopt(_M_TOP_PAD, 64 << 20)
