"""Pins the random stream: reference vectors, bulk/scalar agreement,
derivation stability.  These vectors define the reproducibility contract;
a failure here means every seeded result in the package has changed."""

import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from treecv import _native, dataio, harness, rng, standard, tree
from treecv import SQUARED, LsqSgd, TreeCvConfig, synth_regression, tree_cv
from treecv.core import partition
from treecv.rng import SplitMix64Stream, derive_seed
from treecv.tree import tree_feed_orders

# Reference SplitMix64 output sequence for seed 0.
SEED0_VECTORS = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
    0x53CB9F0C747EA2EA,
    0x2C829ABE1F4532E1,
    0xC584133AC916AB3C,
]

# Frozen outputs of this package's derivation scheme (regression pins).
DERIVED_VECTORS = {
    (0, 0): 0xE220A8397B1DCDAF,
    (42, 1, 2): 0x89665BE40A2033E9,
    (42, 2, 1): 0x8C5264AF796B5460,
}


# Fisher-Yates reference vectors: SplitMix64Stream(derive_seed(SHUFFLE_SEED, n))
# shuffling range(n), and the stream state afterwards, as made by the scalar
# loop (one randbelow(i + 1) per position i from the last down).  Sizes
# straddle the bulk-draw threshold; n = 1000 is pinned by `_digest`.
SHUFFLE_SEED = 20150701
SHUFFLE_VECTORS = {
    0: (0x8FAAC2B284636552, []),
    1: (0xEA0C74B4CF29C7EB, [0]),
    2: (0x895331E0DFBAB4E6, [0, 1]),
    16: (0xC6BEC35B57A43B36, [15, 9, 12, 11, 4, 1, 8, 10, 2, 3, 0, 13, 7, 14, 6, 5]),
    17: (0xAF86B8F1755E5F27, [1, 7, 13, 16, 11, 0, 6, 2, 5, 9, 3, 4, 15, 12, 14, 10, 8]),
    23: (0xBD7FA69A6A1448AA, [15, 2, 3, 9, 20, 6, 22, 1, 17, 8, 5, 11, 12, 21, 18, 10, 7, 19,
                              14, 0, 4, 13, 16]),
    24: (0x0BFCC7E7DEDC80D9, [22, 17, 2, 4, 20, 12, 11, 18, 10, 21, 16, 6, 9, 13, 8, 15, 7, 0,
                              23, 3, 19, 5, 1, 14]),
    64: (0x71637B54826BFF07, [57, 31, 0, 34, 2, 47, 12, 59, 28, 43, 33, 11, 21, 14, 63, 45, 46,
                              55, 44, 5, 42, 40, 15, 8, 17, 3, 38, 7, 9, 27, 56, 10, 41, 49, 13,
                              26, 62, 39, 29, 4, 58, 36, 54, 53, 48, 30, 23, 1, 25, 20, 16, 61,
                              24, 52, 18, 37, 6, 19, 60, 50, 22, 51, 32, 35]),
    1000: (0x83F032E3038EAAD1, "bd30a901973f8712"),
}

# _digest of each fold's order in tree_feed_orders(partition(100, 4), "randomized", 5):
# every fed range there has 25 or 50 rows.
TREE_ORDER_DIGESTS = ["2e715143e288ea72", "e1b913b22396a54c", "795af24a2fe681df",
                      "4c4c747b3cf7ead0"]


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.int64).tobytes()).hexdigest()[:16]


def scalar_shuffle(stream, values) -> None:
    """The reference Fisher-Yates loop, one randbelow draw per position."""
    for i in range(len(values) - 1, 0, -1):
        j = stream.randbelow(i + 1)
        values[i], values[j] = values[j], values[i]


def shuffled(n: int, container: str, stream) -> list[int]:
    if container == "list":
        values = list(range(n))
        stream.shuffle(values)
        return values
    values = np.arange(n)
    stream.shuffle(values if container == "ndarray" else memoryview(values))
    return values.tolist()


def test_seed0_reference_sequence():
    stream = SplitMix64Stream(0)
    assert [stream.next_u64() for _ in range(len(SEED0_VECTORS))] == SEED0_VECTORS


def test_bulk_draw_matches_scalar_draw():
    for seed in (0, 1, 0xDEADBEEF, 2**64 - 1):
        scalar = SplitMix64Stream(seed)
        bulk = SplitMix64Stream(seed)
        expected = [scalar.next_u64() for _ in range(100)]
        got = bulk.next_u64_array(100)
        assert expected == [int(v) for v in got]
        # streams stay aligned afterwards
        assert scalar.next_u64() == bulk.next_u64()


def test_derive_seed_is_stable_and_tag_sensitive():
    for tags, value in DERIVED_VECTORS.items():
        assert derive_seed(*tags) == value
    assert derive_seed(7, 1) != derive_seed(7, 2)
    assert derive_seed(7, 1, 2) != derive_seed(8, 1, 2)


def test_purpose_tags_are_distinct_and_keep_their_numbers():
    tags = [(name, value) for module in (tree, standard, dataio, harness)
            for name, value in vars(module).items() if name.startswith("TAG_")]
    assert dict(tags) == {
        "TAG_NODE_SHUFFLE": 2,
        "TAG_FOLD_SHUFFLE": 4,
        "TAG_SYNTH": 5,
        "TAG_DATASET_SHUFFLE": 6,
        "TAG_REPETITION": 7,
        "TAG_STABILITY_CHUNK_ORDER": 8,
        "TAG_STABILITY_DATA": 10,
        "TAG_STABILITY_GAP": 11,
    }
    # one module defines each tag, and no two tags share a number
    assert len({name for name, _ in tags}) == len(tags)
    assert len({value for _, value in tags}) == len(tags)


def test_state_snapshot_replays():
    stream = SplitMix64Stream(99)
    stream.next_u64_array(17)
    mark = stream.state
    ahead = [stream.next_u64() for _ in range(5)]
    replay = SplitMix64Stream(mark)
    assert [replay.next_u64() for _ in range(5)] == ahead


def test_uniform_range_and_precision():
    u = SplitMix64Stream(3).uniform_array(20000)
    assert (u >= 0.0).all() and (u < 1.0).all()
    assert abs(u.mean() - 0.5) < 0.01


def test_normal_moments():
    z = SplitMix64Stream(4).normal_array(100001)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def box_muller(stream, count):
    """The reference of `normal_array`: two `uniform_array` calls and
    Box-Muller out of place."""
    pairs = (count + 1) // 2
    u1 = stream.uniform_array(pairs)
    u2 = stream.uniform_array(pairs)
    u1[u1 == 0.0] = 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * math.pi * u2
    return np.concatenate([radius * np.cos(theta), radius * np.sin(theta)])[:count]


@pytest.mark.parametrize("count", [1, 2, 7, 400_000, 800_000])
def test_normal_array_keeps_the_formulas_bits_and_stream_state(count):
    """`normal_array` draws both uniforms in one call and computes in
    place, to the bits and the stream state of the out-of-place formula;
    the second seed's first draw is below 2**11, so its first u1 is 0."""
    for seed in (4, state_before(0)):
        stream, reference = SplitMix64Stream(seed), SplitMix64Stream(seed)
        got = stream.normal_array(count)
        assert got.shape == (count,)
        assert got.tobytes() == box_muller(reference, count).tobytes()
        assert stream.state == reference.state


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 5000))
def test_normal_array_is_the_formula_from_any_state(seed, count):
    """From any state (a draw of two or more wraps 2**64 from most of
    them, since GAMMA exceeds 2**63) and at counts on both sides of
    `rng._COMPILED_UNIFORMS`, `normal_array` gives the out-of-place
    formula's bytes and stream state."""
    stream, reference = SplitMix64Stream(seed), SplitMix64Stream(seed)
    assert stream.normal_array(count).tobytes() == box_muller(reference, count).tobytes()
    assert stream.state == reference.state


@pytest.mark.parametrize("count", [0, 1, rng._COMPILED_UNIFORMS - 2, rng._COMPILED_UNIFORMS - 1,
                                   9001])
def test_normal_array_draws_in_the_kernel_from_the_compiled_size_on(kernels, count, monkeypatch):
    """A draw of at least `_COMPILED_UNIFORMS` uniforms takes u1 and then
    u2 from one `uniforms` call each; a smaller one calls no kernel."""
    calls = []
    uniforms = kernels.uniforms
    monkeypatch.setattr(kernels, "uniforms",
                        lambda *args: calls.append(args[:2]) or uniforms(*args))
    stream, reference = SplitMix64Stream(9), SplitMix64Stream(9)
    assert stream.normal_array(count).tobytes() == box_muller(reference, count).tobytes()
    pairs = (count + 1) // 2
    u2_state = (9 + pairs * 0x9E3779B97F4A7C15) % 2**64
    assert calls == ([(9, pairs), (u2_state, pairs)]
                     if 2 * pairs >= rng._COMPILED_UNIFORMS else [])


def test_randbelow_bounds_and_coverage():
    stream = SplitMix64Stream(5)
    draws = [stream.randbelow(7) for _ in range(2000)]
    assert set(draws) == set(range(7))
    with pytest.raises(ValueError):
        stream.randbelow(0)


def test_shuffle_is_seeded_permutation():
    a = SplitMix64Stream(11).permutation(50)
    b = SplitMix64Stream(11).permutation(50)
    c = SplitMix64Stream(12).permutation(50)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert sorted(a.tolist()) == list(range(50))


def test_single_element_shuffle_is_identity():
    values = [42]
    SplitMix64Stream(0).shuffle(values)
    assert values == [42]


@pytest.mark.parametrize("container", ["ndarray", "list", "memoryview"])
@pytest.mark.parametrize("n", sorted(SHUFFLE_VECTORS))
def test_shuffle_matches_reference_vectors(n, container):
    state, expected = SHUFFLE_VECTORS[n]
    stream = SplitMix64Stream(derive_seed(SHUFFLE_SEED, n))
    got = shuffled(n, container, stream)
    assert (got if isinstance(expected, list) else _digest(got)) == expected
    assert stream.state == state


def test_tree_feed_orders_match_reference_vectors():
    orders = tree_feed_orders(partition(100, 4), "randomized", 5)
    assert [_digest(order) for order in orders] == TREE_ORDER_DIGESTS


# _digest of all folds' orders, concatenated, in tree_feed_orders(part, "randomized", 5):
# at leave-one-out every leaf-level range holds one row; partition(50, 20) has
# chunks of 2 and 3 rows.
SMALL_RANGE_ORDER_DIGESTS = {(37, 37): "dec3dbc8e434e5d9", (50, 20): "dee40ddbb69d853e"}


@pytest.mark.parametrize("n, k", sorted(SMALL_RANGE_ORDER_DIGESTS))
def test_tree_feed_orders_match_reference_vectors_for_small_ranges(n, k):
    orders = tree_feed_orders(partition(n, k), "randomized", 5)
    assert _digest(np.concatenate(orders)) == SMALL_RANGE_ORDER_DIGESTS[n, k]


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1),
       st.integers(0, 2**64 - 1))
def test_derive_seed_folds_tags_left_to_right(seed, tag, a, b):
    assert derive_seed(derive_seed(seed, tag), a, b) == derive_seed(seed, tag, a, b)


@settings(deadline=None)
@given(st.integers(0, 400), st.integers(0, 2**64 - 1))
def test_shuffle_equals_the_scalar_loop(n, seed):
    reference = SplitMix64Stream(seed)
    expected = list(range(n))
    scalar_shuffle(reference, expected)
    stream = SplitMix64Stream(seed)
    assert shuffled(n, "memoryview", stream) == expected
    assert stream.state == reference.state


class PlantedStream(SplitMix64Stream):
    """A stream whose bulk draws carry 2**64 - 1 at one position."""

    def __init__(self, seed: int, position: int):
        super().__init__(seed)
        self.position = position

    def next_u64_array(self, count):
        draws = super().next_u64_array(count)
        draws[self.position] = 2**64 - 1
        return draws


def test_shuffle_falls_back_to_the_scalar_loop_on_a_rejected_draw():
    # draw 0 is for position 39, bound 40: not a power of two, so randbelow
    # rejects 2**64 - 1, which is above (2**64 // 40) * 40
    n, seed = 40, 123
    reference = SplitMix64Stream(seed)
    expected = list(range(n))
    scalar_shuffle(reference, expected)
    planted = PlantedStream(seed, 0)
    assert planted.next_u64_array(1)[0] == 2**64 - 1
    planted = PlantedStream(seed, 0)
    values = np.arange(n)
    planted.shuffle(memoryview(values))
    assert values.tolist() == expected
    assert planted.state == reference.state


def _unshift_xor(z: int, shift: int) -> int:
    """Inverse of z ^ (z >> shift) on 64 bits."""
    x = z
    for _ in range(64 // shift):
        x = z ^ (x >> shift)
    return x


def state_before(output: int) -> int:
    """The stream state whose next output is `output`: the SplitMix64
    finalizer inverted step by step."""
    mask = 2**64 - 1
    z = _unshift_xor(output, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 2**64)) & mask
    z = _unshift_xor(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & mask
    z = _unshift_xor(z, 30)
    return (z - 0x9E3779B97F4A7C15) & mask


@pytest.mark.parametrize("n", [5, 40])
def test_shuffle_rejects_a_real_draw_like_randbelow(n):
    # the first draw is 2**64 - 1, which randbelow(n) rejects for n not a
    # power of two; n = 5 takes the scalar loop, n = 40 the bulk path's
    # fallback, and both must then draw once more
    start = state_before(2**64 - 1)
    assert SplitMix64Stream(start).next_u64() == 2**64 - 1
    reference = SplitMix64Stream(start)
    expected = list(range(n))
    scalar_shuffle(reference, expected)
    # n draws for n - 1 positions: exactly one was rejected
    assert reference.state == (start + n * 0x9E3779B97F4A7C15) & (2**64 - 1)
    stream = SplitMix64Stream(start)
    assert shuffled(n, "list", stream) == expected
    assert stream.state == reference.state


# ---------------------------------------------------------------------------
# Disjoint ranges of one array, each shuffled in place by `rng.shuffled`
# with its own seed, as `shuffle` would shuffle it.  (The names are those
# of the tests of the multi-range kernel call these replace.)


def per_range(values, seeds, starts, stops) -> list[int]:
    """The reference: each slice through `shuffle`, one at a time."""
    values = list(values)
    for seed, a, b in zip(seeds, starts, stops):
        part = values[a:b]
        SplitMix64Stream(int(seed)).shuffle(part)
        values[a:b] = part
    return values


def shuffle_ranges(kernels, values, seeds, starts, stops) -> None:
    """values[starts[r]:stops[r]] shuffled by `rng.shuffled` with seeds[r],
    for every r: in place by the kernel, or through a list."""
    for seed, a, b in zip(seeds, starts, stops):
        values[a:b] = rng.shuffled(kernels, values[a:b], int(seed))


@st.composite
def range_sets(draw):
    """Disjoint ranges with gaps between them, in shuffled order, lengths
    0 to 60 so that some are ragged and some hold one row."""
    lengths = draw(st.lists(st.integers(0, 60), max_size=24))
    gaps = draw(st.lists(st.integers(0, 3), min_size=len(lengths), max_size=len(lengths)))
    starts, at = [], 0
    for gap, length in zip(gaps, lengths):
        starts.append(at + gap)
        at += gap + length
    ranges = draw(st.permutations(list(zip(starts, lengths))))
    firsts = draw(st.lists(st.integers(0, 2**63 - 1), min_size=len(ranges),
                           max_size=len(ranges)))
    return ranges, firsts, at + draw(st.integers(0, 3))


# `kernels` is the same object in every example
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(range_sets(), st.integers(0, 2**64 - 1))
def test_shuffle_ranges_equals_shuffle_per_range(kernels, ranges_firsts_size, seed):
    ranges, firsts, size = ranges_firsts_size
    starts = np.array([a for a, _ in ranges], dtype=np.int64)
    stops = np.array([a + length for a, length in ranges], dtype=np.int64)
    lasts = [first ^ 0x5A5A for first in firsts]
    seeds = np.array([derive_seed(seed, f, l) for f, l in zip(firsts, lasts)], dtype=np.uint64)
    values = np.arange(size, dtype=np.int64) * 7
    expected = per_range(values.tolist(), seeds, starts, stops)
    shuffle_ranges(kernels, values, seeds, starts, stops)
    assert values.tolist() == expected


class PlainLsqSgd(LsqSgd):
    """A subclass with the base rule; the tree runs it by the Python
    recursion."""


# `kernels` is the same object in every example
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(-2**63, 2**64 - 1), st.integers(2, 40))
def test_tree_feed_draws_each_range_from_derive_seed(kernels, seed, k):
    """`tree_feed` inlines derive_seed(shuffle_seed, first, last) for the
    chunks first..last a node feeds.  With run seeds across 64 bits, its
    fold scores are those of the recursion, which derives each stream with
    `derive_seed`, byte for byte: `LsqSgd` predicts real numbers, so a
    range fed in another order changes them."""
    if kernels.tree() is None:
        pytest.skip(f"no tree_feed: {_native.reason()}")
    data = synth_regression(60, 3, seed=1)
    config = TreeCvConfig(ordering="randomized", seed=seed)
    scores = [tree_cv(factory, data, partition(60, k), SQUARED, config).fold_scores
              for factory in (lambda: LsqSgd(3, 0.3), lambda: PlainLsqSgd(3, 0.3))]
    assert struct.pack(f"<{k}d", *scores[0]) == struct.pack(f"<{k}d", *scores[1])


@pytest.mark.parametrize("draw", [0, 17])
def test_shuffle_ranges_redoes_only_a_range_with_a_rejected_draw(draw, kernels):
    # Like PlantedStream, but with a real seed: range 1 is seeded so that
    # its draw `draw` is 2**64 - 1.  Its bound there, 40 - draw, is not a
    # power of two, so randbelow rejects it and draws again, in that range
    # alone; the others keep their own draws.
    planted = (state_before(2**64 - 1) - draw * 0x9E3779B97F4A7C15) & (2**64 - 1)
    assert SplitMix64Stream(planted).next_u64_array(draw + 1)[draw] == 2**64 - 1
    seeds = [derive_seed(9, 0), planted, derive_seed(9, 2)]
    starts, stops = np.array([0, 40, 80]), np.array([40, 80, 119])
    expected = per_range(range(120), seeds, starts, stops)
    values = np.arange(120, dtype=np.int64)
    shuffle_ranges(kernels, values, np.array(seeds, dtype=np.uint64), starts, stops)
    assert values.tolist() == expected
    # the reference loop really did reject a draw there
    reference = SplitMix64Stream(planted)
    scalar_shuffle(reference, list(range(40)))
    assert reference.state == (planted + 40 * 0x9E3779B97F4A7C15) & (2**64 - 1)


def test_shuffle_ranges_of_nothing_changes_nothing(kernels):
    values = np.arange(5, dtype=np.int64)
    for start, stop, seed in ((0, 0, 3), (0, 1, 4), (2, 2, 5), (4, 5, 6)):
        kernels.shuffle(values[start:].ctypes.data, stop - start, seed)
    shuffle_ranges(kernels, values, [3, 4], [0, 2], [1, 2])
    assert values.tolist() == [0, 1, 2, 3, 4]


def test_shuffle_ranges_refuses_what_the_kernel_would_read_or_write_past(kernels):
    """`rng.shuffled` checks the vector before the kernel shuffles it in
    place: one of another dtype, shape or layout, or a read-only one, is
    a ValueError, and the values stay as they were."""
    n = 2 * rng._BULK_MIN
    values = np.arange(n, dtype=np.int64)
    for rows in [
        values.astype(np.float64),
        values.astype(np.int32),
        np.arange(2 * n, dtype=np.int64)[::2],
        values.reshape(2, -1),
    ]:
        with pytest.raises(ValueError, match="compiled shuffle"):
            rng.shuffled(kernels, rows, 3)
    values.flags.writeable = False
    with pytest.raises(ValueError, match="compiled shuffle"):
        rng.shuffled(kernels, values, 3)
    assert values.tolist() == list(range(n))


# ---------------------------------------------------------------------------
# The schedulers' shuffle: an int64 row vector, in the kernel when it is
# loaded


def list_shuffled(values, seed: int) -> list[int]:
    values = list(values)
    SplitMix64Stream(seed).shuffle(values)
    return values


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 200), st.integers(-2**40, 2**40), st.integers(0, 2**64 - 1))
def test_shuffled_equals_the_list_shuffle(kernels, n, offset, seed):
    expected = list_shuffled(range(offset, offset + n), seed)
    for loaded in (kernels, None):
        got = rng.shuffled(loaded, np.arange(offset, offset + n, dtype=np.int64), seed)
        assert got.dtype == np.int64 and got.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("n", [3, 40, 200])
def test_shuffled_redraws_a_rejected_first_draw(kernels, n):
    # the first draw of _REJECTED_SEED is 2**64 - 1, which randbelow(n)
    # rejects: n draws for n - 1 positions
    reference = SplitMix64Stream(_native._REJECTED_SEED)
    expected = list(range(n))
    scalar_shuffle(reference, expected)
    assert reference.state == (_native._REJECTED_SEED + n * 0x9E3779B97F4A7C15) & (2**64 - 1)
    for loaded in (kernels, None):
        got = rng.shuffled(loaded, np.arange(n, dtype=np.int64), _native._REJECTED_SEED)
        assert got.tolist() == expected


@pytest.mark.parametrize("n", [0, 1, rng._BULK_MIN - 1, rng._BULK_MIN, 9000])
def test_shuffled_calls_the_kernel_from_the_bulk_size_on(kernels, n, monkeypatch):
    """A kernel call costs what ~20 elements of the Python loop do, so
    shorter vectors are shuffled as lists."""
    calls = []
    shuffle = kernels.shuffle
    monkeypatch.setattr(kernels, "shuffle", lambda *args: calls.append(args[1]) or shuffle(*args))
    rows = np.arange(n, dtype=np.int64)
    got = rng.shuffled(kernels, rows, 11)
    assert got.tolist() == list_shuffled(range(n), 11)
    assert calls == ([n] if n >= rng._BULK_MIN else [])
    assert (got is rows) == bool(calls)
