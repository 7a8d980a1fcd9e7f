"""Portable deterministic pseudo-randomness.

Every random decision in the harness (data generation, parameter init,
batch shuffling, search-space sampling) flows through xoshiro256** seeded
via SplitMix64. Both generators are published, platform-independent and
have tiny integer state, so streams can be re-derived exactly from a
64-bit seed on any machine. Library PRNGs are avoided on purpose: run
resumption requires bit-identical draw sequences across processes.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a SplitMix64 state; returns (next_state, output)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, (z ^ (z >> 31)) & _MASK64


def derive_stream(seed: int, name: str) -> int:
    """Derive an independent 64-bit stream seed from (seed, name).

    Each name byte is absorbed through the SplitMix64 output function, so
    the map seed -> stream seed is a bijection for a fixed name (distinct
    base seeds can never collide) and different names give unrelated
    streams.
    """
    x = seed & _MASK64
    for b in name.encode("utf-8"):
        _, x = splitmix64(x ^ b)
    _, x = splitmix64(x)
    return x


def derive_child(seed: int, index: int) -> int:
    """Stream seed for the index-th child of a stream (e.g. per epoch)."""
    x = (seed ^ ((index + 1) * _GOLDEN)) & _MASK64
    _, x = splitmix64(x)
    return x


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256StarStar:
    """xoshiro256** with SplitMix64 seeding; state is four 64-bit words."""

    __slots__ = ("s",)

    def __init__(self, seed: int):
        s = seed & _MASK64
        words = []
        for _ in range(4):
            s, z = splitmix64(s)
            words.append(z)
        self.s = words

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self.s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self.s = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        """Uniform float64 in [0, 1) with 53 bits of entropy."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randrange(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        bound = ((1 << 64) // n) * n
        while True:
            x = self.next_u64()
            if x < bound:
                return x % n

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def normal(self) -> float:
        # Box-Muller without the cached twin: stateless apart from the
        # integer words, so the generator never has hidden float state.
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53  # (0, 1]
        u2 = self.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normal_array(self, n: int) -> np.ndarray:
        return np.array([self.normal() for _ in range(n)], dtype=np.float64)

    def shuffled_indices(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        idx = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.randrange(i + 1)
            idx[i], idx[j] = idx[j], idx[i]
        return np.array(idx, dtype=np.int64)
