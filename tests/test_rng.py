import numpy as np
import pytest

from cordseg.errors import DomainError
from cordseg.rng import SplitMix64, derive, mix64


def test_same_seed_same_stream():
    a = SplitMix64(123)
    b = SplitMix64(123)
    assert [a.u64() for _ in range(10)] == [b.u64() for _ in range(10)]


def test_scalar_and_vector_paths_agree():
    scalar = SplitMix64(7)
    vector = SplitMix64(7)
    first = [scalar.u64() for _ in range(100)]
    assert first == vector.u64_array(100).tolist()
    # interleaved consumption stays aligned
    assert scalar.u64() == int(vector.u64_array(1)[0])


def test_mix64_is_stateless_and_64bit():
    assert mix64(0) == mix64(0)
    assert 0 <= mix64(2**63 + 17) < 2**64


def test_derive_varies_by_stream_id():
    seeds = {derive(42, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive(42, 3, 5) == derive(42, 3, 5)
    assert derive(42, 3, 5) != derive(42, 5, 3)


def test_f64_in_unit_interval():
    vals = SplitMix64(1).f64_array(10000)
    assert vals.min() >= 0.0
    assert vals.max() < 1.0
    assert abs(vals.mean() - 0.5) < 0.02


def test_normals_have_expected_moments():
    vals = SplitMix64(2).normal_array(50000)
    assert abs(vals.mean()) < 0.02
    assert abs(vals.std() - 1.0) < 0.02
    scaled = SplitMix64(2).normal_array(50000, mean=3.0, std=0.5)
    assert abs(scaled.mean() - 3.0) < 0.02


def test_normal_array_odd_length_consumes_pairwise():
    a = SplitMix64(5).normal_array(7)
    b = SplitMix64(5).normal_array(8)
    assert np.array_equal(a, b[:7])


def test_randbelow_bounds_and_determinism():
    rng = SplitMix64(9)
    draws = [rng.randbelow(13) for _ in range(2000)]
    assert min(draws) == 0
    assert max(draws) == 12
    with pytest.raises(DomainError):
        rng.randbelow(0)


def test_shuffle_is_a_permutation():
    rng = SplitMix64(4)
    items = list(range(50))
    rng.shuffle(items)
    assert sorted(items) == list(range(50))
    assert items != list(range(50))


def test_permutation_deterministic_per_seed():
    assert SplitMix64(11).permutation(20) == SplitMix64(11).permutation(20)
    assert SplitMix64(11).permutation(20) != SplitMix64(12).permutation(20)


def test_normal_blocks_are_normal_array_bitwise_and_consume_as_much():
    for n in (0, 1, 8194, 8195, 100001):
        whole, blocked = SplitMix64(11), SplitMix64(11)
        want = whole.normal_array(n)
        blocks = list(blocked.normal_blocks(n, 4097))
        assert all(b.size <= 2 * 4097 for b in blocks)
        got = np.concatenate([np.empty(0), *blocks])
        assert got.tobytes() == want.tobytes(), n
        assert blocked.u64() == whole.u64()
