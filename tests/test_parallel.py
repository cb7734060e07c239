"""Sharing the cores between cordseg's workers and OpenBLAS, and the forked helpers."""

import os
import threading
import time

import numpy as np
import pytest

from cordseg import parallel
from cordseg.errors import NumericError


# (environment, BLAS count the user set, cores, default workers); OpenBLAS
# takes the first of OPENBLAS_, GOTO_ and OMP_NUM_THREADS whose leading
# integer, as C's atoi reads it, is positive
USER_COUNTS = [
    pytest.param({}, None, 4, 4, id="unset"),
    pytest.param({"OPENBLAS_NUM_THREADS": "2"}, 2, 4, 2, id="openblas2"),
    pytest.param({"OPENBLAS_NUM_THREADS": "8"}, 8, 4, 1, id="more_than_cores"),
    pytest.param({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 1, 4, 4,
                 id="openblas_before_omp"),
    pytest.param({"OMP_NUM_THREADS": "2"}, 2, 4, 2, id="omp2"),
    pytest.param({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 2, 2, 1,
                 id="openblas0_omp2"),
    pytest.param({"OPENBLAS_NUM_THREADS": "2x"}, 2, 2, 1, id="openblas_2x"),
    pytest.param({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 1, 2, 2,
                 id="goto1_omp2"),
    pytest.param({"OPENBLAS_NUM_THREADS": "0"}, None, 2, 2, id="openblas0"),
    pytest.param({"OMP_NUM_THREADS": " +3"}, 3, 4, 1, id="omp_space_plus3"),
    pytest.param({"OMP_NUM_THREADS": "-1"}, None, 4, 4, id="omp_negative"),
]


def set_user_counts(monkeypatch, env):
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)


@pytest.fixture
def blas(monkeypatch):
    set_user_counts(monkeypatch, {})
    found = parallel._openblas()
    if found is None:
        pytest.skip("no OpenBLAS thread-count symbols in this numpy")
    setter, getter = found
    own = getter()
    setter(3)  # a count no share below equals
    yield found
    setter(own)


def test_share_cores_sets_the_blas_share_and_restores_it(blas, monkeypatch):
    setter, getter = blas
    monkeypatch.setattr(parallel, "available_cores", lambda: 4)
    before = getter()
    with parallel.share_cores(2):
        assert getter() == 2
    with parallel.share_cores(8):
        assert getter() == 1
    assert getter() == before
    with pytest.raises(RuntimeError), parallel.share_cores(4):
        assert getter() == 1
        raise RuntimeError
    assert getter() == before
    with parallel.share_cores(2):  # nested: each exit restores what its entry found
        with parallel.share_cores(4):
            assert getter() == 1
        assert getter() == 2
    assert getter() == before


def test_one_worker_or_a_user_count_leaves_the_blas_alone(blas, monkeypatch):
    setter, getter = blas
    before = getter()
    with parallel.share_cores(1):
        assert getter() == before
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    with parallel.share_cores(2):
        assert getter() == before


@pytest.mark.parametrize("count, workers, unit, spans", [
    (7, 2, 1, [(0, 4), (4, 7)]),
    (6, 3, 1, [(0, 2), (2, 4), (4, 6)]),
    (5, 4, 1, [(0, 2), (2, 4), (4, 5)]),  # three runs of two cover five: one worker idles
    (2, 4, 1, [(0, 1), (1, 2)]),
    (19, 2, 2, [(0, 10), (10, 19)]),  # whole units of two, the last run partial
    (3, 2, 2, [(0, 2), (2, 3)]),
    (2, 2, 2, [(0, 2)]),
    (1, 1, 1, [(0, 1)]),
    (0, 2, 1, []),
])
def test_runs_cut_contiguous_runs_of_whole_units_at_most_one_per_worker(
        count, workers, unit, spans):
    runs = parallel.runs(count, workers, unit)
    assert [(r.start, min(r.stop, count)) for r in runs] == spans
    assert [i for r in runs for i in range(count)[r]] == list(range(count))


def test_available_cores_counts_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
    assert parallel.available_cores() == 3


@pytest.mark.parametrize("env, count, cores, workers", USER_COUNTS)
def test_default_workers_divide_the_cores_by_the_blas_count_openblas_reads(
        monkeypatch, env, count, cores, workers):
    set_user_counts(monkeypatch, env)
    monkeypatch.setattr(parallel, "available_cores", lambda: cores)
    assert parallel._user_blas_threads() == count
    assert parallel.default_workers() == workers


@pytest.mark.parametrize("env, count, cores, workers", USER_COUNTS)
def test_share_cores_leaves_the_blas_alone_exactly_when_the_user_set_a_count(
        blas, monkeypatch, env, count, cores, workers):
    setter, getter = blas
    set_user_counts(monkeypatch, env)
    monkeypatch.setattr(parallel, "available_cores", lambda: cores)
    before = getter()  # 3, which no share of 2 or 4 cores between 2 workers equals
    with parallel.share_cores(2):
        assert (getter() == before) == (count is not None)
    assert getter() == before


# --- forked helpers -----------------------------------------------------------------

def _close_within(helpers, seconds=30):
    """Close the helpers on a thread; fail if reaping them hangs."""
    closing = threading.Thread(target=helpers.close)
    closing.start()
    closing.join(timeout=seconds)
    assert not closing.is_alive()


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


@needs_fork
def test_helpers_reply_through_pipes_and_share_arrays_made_before_the_fork():
    shared = parallel.shared_array((3, 4), np.float64)
    parent = os.getpid()

    def work(index, task):
        assert os.getpid() != parent
        shared[index + 1] = shared[0] * task  # read the caller's row, write its own
        return index, task

    helpers = parallel.Helpers(2, work)
    try:
        for round_ in range(1, 4):
            shared[0] = round_  # written after the fork, before the task
            for index in range(2):
                helpers.send(index, 10 * (index + 1))
            assert [helpers.receive(index) for index in range(2)] == [(0, 10), (1, 20)]
            assert shared[1:].tolist() == [[10.0 * round_] * 4, [20.0 * round_] * 4]
    finally:
        _close_within(helpers)  # helpers exit on EOF
    _no_children_left()


@needs_fork
@pytest.mark.parametrize("error", [NumericError("helper saw nan"), MemoryError("helper"),
                                   KeyError("k")])
def test_a_helpers_exception_is_raised_in_the_caller_with_its_type_and_message(error):
    def work(index, task):
        if task == "fail":
            raise error
        return task

    with pytest.raises(type(error)) as raised, parallel.Helpers(1, work) as helpers:
        helpers.send(0, "ok")
        assert helpers.receive(0) == "ok"
        helpers.send(0, "fail")
        helpers.receive(0)
    assert str(raised.value) == str(error)
    _no_children_left()


@needs_fork
def test_helpers_are_killed_and_reaped_when_the_caller_raises_mid_task():
    def work(index, task):
        time.sleep(60)  # a task the caller never waits for

    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt), parallel.Helpers(2, work) as helpers:
        helpers.send(0, None)
        helpers.send(1, None)
        raise KeyboardInterrupt
    assert time.monotonic() - started < 30
    _no_children_left()


@needs_fork
def test_a_helper_gets_its_blas_share(blas, monkeypatch):
    setter, getter = blas
    monkeypatch.setattr(parallel, "available_cores", lambda: 4)
    before = getter()
    with parallel.Helpers(1, lambda index, task: getter()) as helpers:
        helpers.send(0, None)
        assert helpers.receive(0) == 2  # two workers, the caller one of them
        assert getter() == before  # the caller enters its own section, if any
    _no_children_left()


def test_no_helpers_fork_nothing():
    with parallel.Helpers(0, None):
        pass
    _no_children_left()
