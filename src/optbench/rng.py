"""Portable deterministic pseudo-randomness.

Every random decision in the harness (data generation, parameter init,
batch shuffling, search-space sampling) flows through xoshiro256** seeded
via SplitMix64. Both generators are published, platform-independent and
have tiny integer state, so streams can be re-derived exactly from a
64-bit seed on any machine. Library PRNGs are avoided on purpose: run
resumption requires bit-identical draw sequences across processes.

A batch shuffle is defined by ``Xoshiro256StarStar.shuffled_indices``: the
Fisher-Yates permutation drawn from one stream. ``permutations`` computes
the same permutations for many streams at once with numpy; it is only a
faster way to get them, and falls back to ``shuffled_indices`` for any
stream it cannot batch. ``normal_array`` draws the words of long runs of
normals the same way.
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
        """n draws of ``normal``, leaving the state where they leave it. From
        ``_LANE_NORMALS`` on, the 2n words come from ``_lane_states``;
        ``math`` still takes each log, square root and cosine, since
        ``np.log`` may round the last bit otherwise."""
        if n < _LANE_NORMALS:
            return np.array([self.normal() for _ in range(n)], dtype=np.float64)
        words, ends = _lane_states([self.s], 2 * n)
        chunks, rest = divmod(2 * n, _LANE)
        self.s = ends[:, chunks - 1].tolist()  # the state after chunks * _LANE words
        for _ in range(rest):
            self.next_u64()
        u1 = ((words[0, 0::2] >> 11) + 1).astype(np.float64) * 2.0**-53  # exact, as in ``normal``
        angle = (words[0, 1::2] >> 11).astype(np.float64) * 2.0**-53 * (2.0 * math.pi)
        return np.array(
            [math.sqrt(-2.0 * math.log(a)) * math.cos(b) for a, b in zip(u1.tolist(), angle.tolist())],
            dtype=np.float64,
        )

    def shuffled_indices(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        idx = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.randrange(i + 1)
            idx[i], idx[j] = idx[j], idx[i]
        return np.array(idx, dtype=np.int64)


# --- batched permutations ---------------------------------------------------
#
# ``permutations`` computes the same Fisher-Yates permutations as
# ``shuffled_indices``, many streams at a time. Draw k of a stream is
# ``randrange(n - k)``, so without a rejection a stream's permutation needs
# exactly its first n - 1 outputs. A xoshiro256** step is a linear map T of
# the 256-bit state over GF(2), so those outputs split into chunks of _LANE
# draws: chunk c starts at T^(c * _LANE) of the seeded state, reached with
# the cached ladder T^(_LANE * 2^i). All chunks of all streams then step
# together as numpy uint64 lanes.

_LANE = 64  # draws per lane; fixed, so every n and epoch count share one ladder
_LANE_NORMALS = 256  # the fewest normals ``normal_array`` draws through lanes
_LADDER: dict[int, np.ndarray] = {}  # level i: nibble table of T^(_LANE * 2^i)
_NIBBLE_ROWS = np.arange(0, 64 * 16, 16)[:, None]  # row of nibble q's value 0
_U64_MAX = np.uint64(_MASK64)


def _step_lanes(s: np.ndarray, steps: int, out: np.ndarray | None = None) -> None:
    """Advance every column of the [4, lanes] state ``s`` by ``steps`` in
    place; ``out[k]`` receives the outputs of step k."""
    s0, s1, s2, s3 = s
    t = np.empty_like(s0)
    for k in range(steps):
        if out is not None:
            r = out[k]
            np.multiply(s1, 5, out=r)
            np.left_shift(r, 7, out=t)
            r >>= 57
            r |= t
            r *= 9
        np.left_shift(s1, 17, out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, 45, out=t)
        s3 >>= 19
        s3 |= t


def _jump(table: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The linear map of a nibble table applied to each column of ``s``."""
    b = np.ascontiguousarray(s.T, dtype="<u8").view(np.uint8)  # [lanes, 32]
    nibbles = np.stack([b & 15, b >> 4], axis=2).reshape(len(b), 64).T  # bits 4q..4q+3
    rows = _NIBBLE_ROWS + nibbles
    flat = table.reshape(-1, 4)
    out = np.zeros((len(b), 4), dtype=np.uint64)
    for q in range(0, 64, 8):  # eight nibbles at a time bounds the gathered rows
        out ^= np.bitwise_xor.reduce(np.take(flat, rows[q : q + 8], axis=0), axis=0)
    return out.T


def _ladder(level: int) -> np.ndarray:
    """Nibble table of T^(_LANE * 2^level): entry [q, v] is the image of the
    state whose only set bits are v << 4q. Built once per process; threads
    that race here compute equal tables."""
    table = _LADDER.get(level)
    if table is None:
        bits = np.arange(256)
        s = np.zeros((4, 256), dtype=np.uint64)
        s[bits // 64, bits] = np.uint64(1) << (bits % 64).astype(np.uint64)
        if level:
            half = _ladder(level - 1)
            s = _jump(half, _jump(half, s))
        else:
            _step_lanes(s, _LANE)
        cols = s.T.reshape(64, 4, 4)  # image of bit 4q + k at [q, k]
        table = np.zeros((64, 16, 4), dtype=np.uint64)
        for k in range(4):
            table[:, 1 << k : 2 << k] = table[:, : 1 << k] ^ cols[:, k, None]
        table = _LADDER.setdefault(level, table)
    return table


def _lane_draws(seeds: list[int], count: int) -> np.ndarray:
    """uint64 [len(seeds), count]: the first ``count`` outputs of each stream."""
    return _lane_states([Xoshiro256StarStar(seed).s for seed in seeds], count)[0]


def _lane_states(states: list[list[int]], count: int) -> tuple[np.ndarray, np.ndarray]:
    """uint64 [len(states), count], the first ``count`` outputs from each
    xoshiro256** state, and uint64 [4, len(states) * chunks]: column
    ``i * chunks + c`` is state i after ``(c + 1) * _LANE`` outputs."""
    chunks = -(-count // _LANE)
    lanes = np.array(states, dtype=np.uint64).T[:, :, None]  # [4, state, chunk]
    level = 0
    while lanes.shape[2] < chunks:
        new = min(lanes.shape[2], chunks - lanes.shape[2])
        jumped = _jump(_ladder(level), lanes[:, :, :new].reshape(4, -1))
        lanes = np.concatenate([lanes, jumped.reshape(4, len(states), new)], axis=2)
        level += 1
    lanes = np.ascontiguousarray(lanes.reshape(4, -1))
    out = np.empty((lanes.shape[1], _LANE), dtype=np.uint64)
    _step_lanes(lanes, _LANE, out.T)
    return out.reshape(len(states), chunks * _LANE)[:, :count], lanes


def permutations(seeds: list[int], n: int) -> np.ndarray:
    """int64 [len(seeds), n]; row e equals
    ``Xoshiro256StarStar(seeds[e]).shuffled_indices(n)``.

    A stream whose draws meet a ``randrange`` rejection (odds below
    n / 2^64 per draw) is recomputed by ``shuffled_indices``.
    """
    perms = np.empty((len(seeds), n), dtype=np.int64)
    if n <= 1 or not seeds:
        perms[:] = np.arange(n)
        return perms
    x = _lane_draws(seeds, n - 1)
    bound = np.arange(n, 1, -1, dtype=np.uint64)  # draw k is randrange(n - k)
    largest = _U64_MAX - (_U64_MAX % bound + 1) % bound  # largest accepted draw
    rejected = (x > largest).any(axis=1)
    js = np.remainder(x, bound, out=x)
    for e, seed in enumerate(seeds):
        if rejected[e]:
            perms[e] = Xoshiro256StarStar(seed).shuffled_indices(n)
            continue
        idx = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), js[e].tolist()):
            idx[i], idx[j] = idx[j], idx[i]
        perms[e] = idx
    return perms
