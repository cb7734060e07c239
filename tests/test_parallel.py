"""Sharing the cores between cordseg's workers and OpenBLAS, and the forked helpers."""

import os
import signal
import time

import numpy as np
import pytest

from cordseg import parallel
from cordseg.errors import DomainError, NumericError


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
    assert parallel.workers() == workers
    assert parallel.workers(cores) == cores  # a count the caller names still wins


def test_workers_is_the_wanted_count_capped_at_the_cores(cores):
    cores(4)
    assert [parallel.workers(wanted) for wanted in (1, 3, 4, 5, 165)] == [1, 3, 4, 4, 4]


@pytest.mark.parametrize("wanted", [0, -1, -165])
def test_workers_rejects_a_count_below_one(cores, wanted):
    cores(4)
    with pytest.raises(DomainError, match="at least 1"):
        parallel.workers(wanted)


def test_workers_is_one_without_fork(monkeypatch, cores):
    # read when called, so a platform without os.fork runs every task in the caller
    cores(4)
    monkeypatch.delattr(os, "fork", raising=False)
    assert [parallel.workers(), parallel.workers(1), parallel.workers(3)] == [1, 1, 1]
    with pytest.raises(DomainError, match="at least 1"):
        parallel.workers(0)


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

def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _recording_forks(monkeypatch, fail_at=None):
    """Record each os.fork in the list returned; the fail_at-th call (from 1)
    raises KeyboardInterrupt instead, as a Ctrl-C during it would."""
    forks, real_fork = [], os.fork

    def fork():
        forks.append(len(forks) + 1)
        if len(forks) == fail_at:
            raise KeyboardInterrupt
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


@needs_fork
def test_helpers_reply_through_pipes_and_share_arrays_made_before_the_fork():
    # map_tasks replies in task order, task 0 running in the caller
    shared = parallel.shared_array((4, 4), np.float64)
    parent = os.getpid()

    def work(index, task):
        assert os.getpid() != parent
        shared[index + 1] = shared[0] * task  # read the caller's row, write its own
        return index, task, os.getpid()

    def local(task):
        return None, task, os.getpid()

    started = time.monotonic()
    with parallel.helpers(3, work) as map_tasks:
        for round_ in range(1, 4):
            shared[0] = round_  # written after the fork, before the tasks
            replies = map_tasks(local, [5, 10, 20, 30])
            assert [reply[:2] for reply in replies] == [(None, 5), (0, 10), (1, 20), (2, 30)]
            assert replies[0][2] == parent and len({reply[2] for reply in replies}) == 4
            assert shared[1:].tolist() == [[t * round_] * 4 for t in (10.0, 20.0, 30.0)]
        assert [r[:2] for r in map_tasks(local, [1, 2])] == [(None, 1), (0, 2)]  # fewer tasks
    assert time.monotonic() - started < 30  # leaving the block reaps without hanging
    _no_children_left()


@needs_fork
@pytest.mark.parametrize("error", [NumericError("helper saw nan"), MemoryError("helper"),
                                   KeyError("k")])
def test_a_helpers_exception_is_raised_in_the_caller_with_its_type_and_message(error):
    def work(index, task):
        if task == "fail":
            raise error
        return task

    with pytest.raises(type(error)) as raised, parallel.helpers(2, work) as map_tasks:
        assert map_tasks(str.upper, ["a", "ok", "ok"]) == ["A", "ok", "ok"]
        map_tasks(str.upper, ["a", "ok", "fail"])
    assert str(raised.value) == str(error)
    _no_children_left()


@needs_fork
def test_helpers_are_killed_and_reaped_when_the_caller_raises_mid_task():
    def work(index, task):
        time.sleep(60)  # a task the caller never waits for

    for stop in (RuntimeError, KeyboardInterrupt):
        def local(task):
            raise stop

        started = time.monotonic()
        with pytest.raises(stop), parallel.helpers(2, work) as map_tasks:
            map_tasks(local, [None, None, None])
        assert time.monotonic() - started < 30
        _no_children_left()


@needs_fork
def test_nothing_forks_when_taking_the_blas_share_raises(monkeypatch):
    def interrupted(workers):
        raise KeyboardInterrupt  # as a Ctrl-C while OpenBLAS is first looked up

    forks = _recording_forks(monkeypatch)
    monkeypatch.setattr(parallel, "share_cores", interrupted)
    with pytest.raises(KeyboardInterrupt), parallel.helpers(2, lambda index, task: task):
        pass
    assert forks == []
    _no_children_left()


@needs_fork
def test_helpers_fork_nothing_until_the_block_is_entered(monkeypatch):
    forks = _recording_forks(monkeypatch)
    block = parallel.helpers(2, lambda index, task: task)
    assert forks == []
    with block as map_tasks:
        assert forks == [1, 2]
        assert map_tasks(str, [1, 2, 3]) == ["1", 2, 3]
    _no_children_left()


@needs_fork
def test_a_ctrl_c_during_a_fork_leaves_no_child_and_restores_the_blas_count(
        blas, monkeypatch):
    setter, getter = blas
    monkeypatch.setattr(parallel, "available_cores", lambda: 4)
    before = getter()
    forks = _recording_forks(monkeypatch, fail_at=2)
    with pytest.raises(KeyboardInterrupt), parallel.helpers(2, lambda index, task: task):
        pytest.fail("the block ran although a fork was interrupted")
    assert forks == [1, 2]  # the first helper was forked, and then reaped
    assert getter() == before
    _no_children_left()


@needs_fork
def test_a_helper_gets_its_blas_share(blas, monkeypatch):
    # inherited at the fork from the caller, which has it inside the with-block only
    setter, getter = blas
    monkeypatch.setattr(parallel, "available_cores", lambda: 4)
    before = getter()
    with parallel.helpers(1, lambda index, task: getter()) as map_tasks:
        # two workers, the caller one of them: each gets 4 // 2 threads
        assert map_tasks(lambda task: getter(), [None, None]) == [2, 2]
    assert getter() == before
    with pytest.raises(RuntimeError), \
            parallel.helpers(3, lambda index, task: getter()) as map_tasks:
        assert map_tasks(lambda task: getter(), [None] * 4) == [1] * 4
        raise RuntimeError
    assert getter() == before
    _no_children_left()


@needs_fork
def test_a_helper_exits_by_itself_at_eof_on_its_pipe(monkeypatch):
    # as when the caller dies without killing the helpers: with os.kill a
    # no-op, leaving the block closes the pipes, and EOF alone must end them
    killed, statuses = [], []
    real_kill, real_waitpid = os.kill, os.waitpid

    def waitpid_within_30s(pid, options):
        deadline = time.monotonic() + 30
        while not (done := real_waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                real_kill(pid, signal.SIGKILL)  # fail, and leave no child behind
                real_waitpid(pid, 0)
                pytest.fail(f"helper {pid} did not exit at EOF")
            time.sleep(0.01)
        statuses.append(done[1])
        return done

    with parallel.helpers(2, lambda index, task: task) as map_tasks:
        assert map_tasks(str, [1, 2, 3]) == ["1", 2, 3]
        monkeypatch.setattr(os, "kill", lambda pid, sig: killed.append(pid))
        monkeypatch.setattr(os, "waitpid", waitpid_within_30s)
    monkeypatch.undo()
    assert len(killed) == 2 and statuses == [0, 0]
    _no_children_left()


def test_no_helpers_fork_nothing(monkeypatch):
    # and the one task runs here
    forks = _recording_forks(monkeypatch) if hasattr(os, "fork") else []
    with parallel.helpers(0, None) as map_tasks:
        assert map_tasks(lambda task: (task, os.getpid()), ["only"]) == [("only", os.getpid())]
        with pytest.raises(IndexError):  # a task no worker would run
            map_tasks(str.upper, ["a", "b"])
    assert forks == []
    _no_children_left()
