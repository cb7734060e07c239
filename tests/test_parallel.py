"""Sharing the cores between cordseg's worker threads and OpenBLAS."""

import os
import sys
import threading
import time

import pytest

from cordseg import parallel


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


def test_one_worker_or_a_user_count_leaves_the_blas_alone(blas, monkeypatch):
    setter, getter = blas
    before = getter()
    with parallel.share_cores(1):
        assert getter() == before
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    with parallel.share_cores(2):
        assert getter() == before


def test_overlapping_sections_restore_the_count_once_all_close(blas, monkeypatch):
    setter, getter = blas
    monkeypatch.setattr(parallel, "available_cores", lambda: 4)
    before = getter()
    wrong = []
    start = threading.Barrier(16)

    def worker():
        start.wait()
        for _ in range(50):
            with parallel.share_cores(4):
                time.sleep(0)  # let the other threads open and close sections
                if getter() != 1:
                    wrong.append(getter())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert getter() == before


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
