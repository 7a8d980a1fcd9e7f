import hashlib

import numpy as np
import pytest

from optbench import rng
from optbench.engine import PERM_BLOCK, _epoch_orders
from optbench.rng import (
    Xoshiro256StarStar,
    derive_child,
    derive_stream,
    permutations,
    splitmix64,
)

# Frozen outputs of the published reference implementations (verified
# against the original C sources).
SPLITMIX_SEED_1234567 = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]
XOSHIRO_SEED_42 = [
    1546998764402558742,
    6990951692964543102,
    12544586762248559009,
    17057574109182124193,
    18295552978065317476,
]


def test_splitmix64_reference_vectors():
    s = 1234567
    outs = []
    for _ in range(5):
        s, z = splitmix64(s)
        outs.append(z)
    assert outs == SPLITMIX_SEED_1234567


def test_xoshiro_reference_vectors():
    gen = Xoshiro256StarStar(42)
    assert [gen.next_u64() for _ in range(5)] == XOSHIRO_SEED_42


def test_uniform_range_and_determinism():
    gen = Xoshiro256StarStar(1)
    xs = [gen.random() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    gen2 = Xoshiro256StarStar(1)
    assert xs == [gen2.random() for _ in range(1000)]


def test_normal_moments():
    gen = Xoshiro256StarStar(3)
    xs = gen.normal_array(20000)
    assert abs(float(np.mean(xs))) < 0.03
    assert abs(float(np.std(xs)) - 1.0) < 0.03


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 4096])
def test_normal_array_equals_scalar_normals_and_leaves_their_state(n):
    for seed in (3, 2**64 - 1):
        gen, ref = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
        gen.next_u64(), ref.next_u64()  # not a freshly seeded state
        xs = gen.normal_array(n)
        expected = np.array([ref.normal() for _ in range(n)], dtype=np.float64)
        assert xs.dtype == np.float64 and xs.tobytes() == expected.tobytes()
        assert gen.s == ref.s and all(type(w) is int for w in gen.s)
        assert gen.next_u64() == ref.next_u64()


def test_shuffle_is_permutation():
    gen = Xoshiro256StarStar(5)
    perm = gen.shuffled_indices(100)
    assert sorted(perm.tolist()) == list(range(100))


def _sha(perm: np.ndarray) -> str:
    return hashlib.sha256(perm.astype("<i8").tobytes()).hexdigest()


# SHA-256 of the little-endian int64 bytes of shuffled_indices(n), recorded
# from the scalar Fisher-Yates before the batched path existed.
SHUFFLE_SHA256 = {
    (0, 1): "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    (1, 2): "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db",
    (5, 100): "67af427315e39c12801bc9daabb1e7539359e732793f28762fa24705ab036425",
    (42, 1024): "56c74e8b86f11dbffcfe0d24e9c5190e641955307be42e70f444e7f38acf38bf",
    ((1 << 64) - 1, 257): "b57726e58910f137efb01cf3e1f1cb319f59b81ec87f152abed863f9dcea4922",
    (123456789, 2048): "cbc636f54ef48a0a455006c2d547db8840c88d0eb4e1e6547d3af42111321c2d",
    (7, 3000): "c3ef1daed82ab4256bb7f03ccc2bf3308821fd5421118c5e4ec186f88ca75b0f",
}

# Twenty shuffle seeds: the extremes plus epoch streams as the engine derives them.
SEEDS = [0, (1 << 64) - 1] + [derive_child(derive_stream(3, "shuffle"), e) for e in range(1, 19)]

# SHA-256 over shuffled_indices(n) of every seed in SEEDS, for n = 0..300 in
# order, recorded from the scalar path (recomputing it here takes ~2 s).
SMALL_N_SHA256 = "69e5a7bc8ea17419b7638bc59911bce2b29d1a85c9b53bf087e84adad15d79be"


def test_shuffle_reference_hashes():
    for (seed, n), digest in SHUFFLE_SHA256.items():
        assert _sha(Xoshiro256StarStar(seed).shuffled_indices(n)) == digest, (seed, n)
        assert _sha(permutations([seed], n)[0]) == digest, (seed, n)


def test_permutations_match_scalar_for_small_n():
    h = hashlib.sha256()
    for n in range(301):
        batched = permutations(SEEDS, n)
        assert batched.shape == (len(SEEDS), n) and batched.dtype == np.int64
        h.update(batched.astype("<i8").tobytes())
        for seed, row in zip(SEEDS[::10], batched[::10]):  # two seeds live
            assert np.array_equal(row, Xoshiro256StarStar(seed).shuffled_indices(n)), (seed, n)
    assert h.hexdigest() == SMALL_N_SHA256


def test_permutations_match_scalar_near_powers_of_two():
    for n in sorted({2**k + d for k in range(1, 12) for d in (-1, 0, 1)}):
        batched = permutations(SEEDS, n)
        for seed, row in zip(SEEDS, batched):
            assert np.array_equal(row, Xoshiro256StarStar(seed).shuffled_indices(n)), (seed, n)


def test_no_seeds():
    assert permutations([], 5).shape == (0, 5)


def test_epoch_blocks_starting_mid_run():
    shuffle_seed = derive_stream(11, "shuffle")
    n = 100
    full = dict(_epoch_orders(shuffle_seed, range(1, 2 * PERM_BLOCK + 4), n))
    for e, perm in full.items():
        expected = Xoshiro256StarStar(derive_child(shuffle_seed, e)).shuffled_indices(n)
        assert np.array_equal(perm, expected), e
    for first in (2, PERM_BLOCK, PERM_BLOCK + 1, 2 * PERM_BLOCK + 3):  # as resumes start
        resumed = list(_epoch_orders(shuffle_seed, range(first, 2 * PERM_BLOCK + 4), n))
        assert [e for e, _ in resumed] == list(range(first, 2 * PERM_BLOCK + 4))
        for e, perm in resumed:
            assert np.array_equal(perm, full[e]), (first, e)


def test_rejected_draw_takes_scalar_path_for_that_stream_only(monkeypatch):
    n = 300  # draw 0 is randrange(300), whose bound 2^64 - (2^64 mod 300) rejects 2^64 - 1
    seeds = SEEDS[:6]
    real_draws = rng._lane_draws

    def one_rejected(lane_seeds, count):
        x = real_draws(lane_seeds, count)
        x[3, 0] = np.uint64((1 << 64) - 1)
        return x

    scalar_seeds = []
    real_shuffle = Xoshiro256StarStar.shuffled_indices

    def spy(self, size):
        scalar_seeds.append(self.s)
        return real_shuffle(self, size)

    monkeypatch.setattr(rng, "_lane_draws", one_rejected)
    monkeypatch.setattr(Xoshiro256StarStar, "shuffled_indices", spy)
    batched = permutations(seeds, n)
    assert scalar_seeds == [Xoshiro256StarStar(seeds[3]).s]
    for seed, row in zip(seeds, batched):
        assert np.array_equal(row, real_shuffle(Xoshiro256StarStar(seed), n))


def test_derive_stream_distinct_names():
    a = derive_stream(42, "init")
    b = derive_stream(42, "shuffle")
    assert a != b
    assert derive_stream(42, "init") == a


def test_derive_child_distinct():
    seeds = {derive_child(123, i) for i in range(1000)}
    assert len(seeds) == 1000
