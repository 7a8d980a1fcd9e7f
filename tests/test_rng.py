import numpy as np

from optbench.rng import Xoshiro256StarStar, derive_child, derive_stream, splitmix64

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


def test_shuffle_is_permutation():
    gen = Xoshiro256StarStar(5)
    perm = gen.shuffled_indices(100)
    assert sorted(perm.tolist()) == list(range(100))


def test_derive_stream_distinct_names():
    a = derive_stream(42, "init")
    b = derive_stream(42, "shuffle")
    assert a != b
    assert derive_stream(42, "init") == a


def test_derive_child_distinct():
    seeds = {derive_child(123, i) for i in range(1000)}
    assert len(seeds) == 1000
