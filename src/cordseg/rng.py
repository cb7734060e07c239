"""Deterministic random streams built on the splitmix64 mixing function.

Every random draw in the package flows through SplitMix64 streams, never
through numpy's own generators, so a (seed, consumption order) pair
reproduces bit-identical values regardless of numpy version or worker
count.  The i-th output of a stream is mix(seed + (i+1)*GOLDEN), which lets
bulk draws vectorize over a counter instead of looping over state updates.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """Splitmix64 output function on a 64-bit integer."""
    z = (int(x) + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive(seed: int, *stream: int) -> int:
    """Derive an independent 64-bit seed from a base seed and stream ids.

    Same arguments give the same seed; distinct stream ids give
    decorrelated streams (e.g. per-sample or per-epoch substreams).
    """
    h = mix64(seed)
    for s in stream:
        h = mix64(h ^ mix64(s & _MASK64))
    return h


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """Stateful deterministic stream of 64-bit words and derived floats."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64
        self._count = 0

    def u64(self) -> int:
        key = (self._state + self._count * _GOLDEN) & _MASK64
        self._count += 1
        return mix64(key)

    def _words(self, start: int, n: int) -> np.ndarray:
        """The n outputs at counters start, start + 1, ..., without consuming them."""
        counters = np.arange(start, start + n, dtype=np.uint64)
        with np.errstate(over="ignore"):
            keys = np.uint64(self._state) + (counters * np.uint64(_GOLDEN)) + np.uint64(_GOLDEN)
            return _mix64_array(keys)

    def u64_array(self, n: int) -> np.ndarray:
        if n < 0:
            raise DomainError(f"draw count must be >= 0, got {n}")
        self._count += n
        return self._words(self._count - n, n)

    def f64(self) -> float:
        # 53 high bits -> [0, 1)
        return (self.u64() >> 11) * 2.0**-53

    def f64_array(self, n: int) -> np.ndarray:
        return (self.u64_array(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def _claim_pairs(self, n: int) -> tuple[int, int]:
        """Consume the words of n Box-Muller draws: (first counter, pair count).
        Pair j takes u1 from word start + j and u2 from word start + pairs + j."""
        if n < 0:
            raise DomainError(f"draw count must be >= 0, got {n}")
        pairs = (n + 1) // 2
        self._count += 2 * pairs
        return self._count - 2 * pairs, pairs

    def _normals(self, u1_at: int, u2_at: int, pairs: int) -> np.ndarray:
        """The 2 * pairs draws of Box-Muller pairs whose u1 and u2 words start
        at the given counters."""
        # u1 in (0, 1] so log stays finite
        u1 = ((self._words(u1_at, pairs) >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
        u2 = (self._words(u2_at, pairs) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * math.pi) * u2
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out

    def normal_array(self, n: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """n standard-normal float64 draws via Box-Muller on stream pairs."""
        start, pairs = self._claim_pairs(n)
        return mean + std * self._normals(start, start + pairs, pairs)[:n]

    def normal_blocks(self, n: int, block_pairs: int):
        """normal_array(n), bit for bit, as consecutive blocks of at most
        2 * block_pairs draws, so that its float64 temporaries stay that
        small.  The stream advances past all n draws at once."""
        start, pairs = self._claim_pairs(n)
        return (self._normals(start + j, start + pairs + j, min(block_pairs, pairs - j))[:n - 2 * j]
                for j in range(0, pairs, block_pairs))

    def randbelow(self, bound: int) -> int:
        """Unbiased integer in [0, bound) by rejection sampling."""
        if bound <= 0:
            raise DomainError(f"bound must be positive, got {bound}")
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % bound)
        while True:
            r = self.u64()
            if r < limit:
                return r % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list[int]:
        order = list(range(n))
        self.shuffle(order)
        return order
