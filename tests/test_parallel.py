"""Sharing the cores between cordseg's worker threads and OpenBLAS."""

import os
import sys
import threading
import time

import pytest

from cordseg import parallel


@pytest.fixture
def blas(monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
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
