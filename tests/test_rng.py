"""Determinism and distribution sanity for the seeded generator."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flan.rng import LANE_STEPS, Rng, batch_normal, batch_u64, child_streams


# -- determinism -------------------------------------------------------------

def test_same_seed_same_stream():
    a = Rng(1234)
    b = Rng(1234)
    assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]


def test_different_seeds_diverge():
    a = Rng(0)
    b = Rng(1)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_zero_seed_is_usable():
    vals = [Rng(0).next_u64() for _ in range(4)]
    assert vals[0] != 0


def test_child_streams_are_stable_and_distinct():
    root = Rng(7)
    assert root.child("gen").next_u64() == Rng(7).child("gen").next_u64()
    assert root.child("gen").next_u64() != root.child("noise").next_u64()
    assert root.child("a", 1).next_u64() != root.child("a", 2).next_u64()
    # deriving children must not advance the parent
    before = Rng(7)
    _ = before.child("x")
    assert before.next_u64() == Rng(7).next_u64()


def test_child_tag_types_matter():
    r = Rng(3)
    assert r.child(1).next_u64() != r.child("1").next_u64()


def test_chained_children_equal_flat_tags():
    # absorption is sequential, so .child(a).child(b) == .child(a, b)
    r = Rng(9)
    assert r.child("a").child("b").next_u64() == r.child("a", "b").next_u64()
    assert r.child("a", "b").next_u64() != r.child("b", "a").next_u64()


# -- ranges and shapes ---------------------------------------------------------

@given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=200, deadline=None)
def test_randint_in_range(n, seed):
    r = Rng(seed)
    for _ in range(8):
        v = r.randint(n)
        assert 0 <= v < n


def test_randint_rejects_nonpositive():
    with pytest.raises(ValueError):
        Rng(0).randint(0)


def test_random_unit_interval():
    r = Rng(42)
    vals = [r.random() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert abs(sum(vals) / len(vals) - 0.5) < 0.03


def test_uniform_bounds():
    r = Rng(5)
    vals = [r.uniform(-2.0, 3.0) for _ in range(500)]
    assert all(-2.0 <= v < 3.0 for v in vals)


def test_normal_moments():
    r = Rng(8)
    vals = [r.normal() for _ in range(4000)]
    mean = sum(vals) / len(vals)
    var = sum((v - mean) ** 2 for v in vals) / len(vals)
    assert abs(mean) < 0.06
    assert abs(math.sqrt(var) - 1.0) < 0.06


def test_normal_scale_shift():
    a = [Rng(13).normal() for _ in range(16)]
    b = [Rng(13).normal(2.0, 3.0) for _ in range(16)]
    for x, y in zip(a, b):
        assert y == pytest.approx(2.0 + 3.0 * x, abs=1e-12)


# -- shuffle / sample ----------------------------------------------------------

def test_shuffle_is_permutation_and_deterministic():
    items = list(range(20))
    a, b = items[:], items[:]
    Rng(99).shuffle(a)
    Rng(99).shuffle(b)
    assert a == b
    assert sorted(a) == items
    assert a != items  # astronomically unlikely to be identity


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=30))
@settings(max_examples=100, deadline=None)
def test_sample_without_replacement(seed, k):
    population = list(range(30))
    got = Rng(seed).sample(population, k)
    assert len(got) == k
    assert len(set(got)) == k
    assert set(got) <= set(population)


def test_sample_full_population_is_permutation():
    pop = list(range(12))
    got = Rng(4).sample(pop, 12)
    assert sorted(got) == pop


def test_sample_rejects_oversized_k():
    with pytest.raises(ValueError):
        Rng(0).sample([1, 2, 3], 4)


def test_sample_leaves_population_untouched():
    pop = [3, 1, 4, 1, 5]
    Rng(2).sample(pop, 3)
    assert pop == [3, 1, 4, 1, 5]


# -- stream quality smoke ------------------------------------------------------

def test_no_short_cycles():
    r = Rng(1)
    seen = set()
    for _ in range(10_000):
        v = r.next_u64()
        assert v not in seen
        seen.add(v)


def test_bit_balance():
    r = Rng(6)
    ones = 0
    n = 2000
    for _ in range(n):
        ones += bin(r.next_u64()).count("1")
    # 64 * n Bernoulli(1/2) bits: mean 64n/2, sd ~ sqrt(16n)
    assert abs(ones - 32 * n) < 6 * math.sqrt(16 * n)


# -- batched lanes -------------------------------------------------------------

S = LANE_STEPS
LANE_SIZES = [0, 1, S - 1, S, S + 1, 40_000]


def test_batch_matches_scalar_draws_for_mixed_sizes():
    sizes = LANE_SIZES + [3, 2 * S, 0, 5 * S + 7]
    batched = [Rng(17).child("lane", k) for k in range(len(sizes))]
    scalar = [Rng(17).child("lane", k) for k in range(len(sizes))]
    draws = batch_u64(batched, sizes)
    assert len(draws) == len(sizes)
    for n, got, ref in zip(sizes, draws, scalar):
        assert got.dtype == np.uint64 and got.shape == (n,)
        assert got.tolist() == [ref.next_u64() for _ in range(n)], n


@pytest.mark.parametrize("n", LANE_SIZES)
def test_scalar_draws_after_a_batch_continue_the_stream(n):
    batched, scalar = Rng(5).child("after"), Rng(5).child("after")
    batch_u64([batched], [n])
    for _ in range(n):
        scalar.next_u64()
    assert [batched.next_u64() for _ in range(3)] == [scalar.next_u64() for _ in range(3)]


@given(st.lists(st.integers(min_value=0, max_value=3 * S), max_size=6),
       st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=25, deadline=None)
def test_batch_matches_scalar_draws_for_any_sizes(sizes, seed):
    draws = batch_u64([Rng(seed).child(k) for k in range(len(sizes))], sizes)
    for k, (n, got) in enumerate(zip(sizes, draws)):
        ref = Rng(seed).child(k)
        assert got.tolist() == [ref.next_u64() for _ in range(n)]


@pytest.mark.parametrize("n", [64 * S, 64 * S + 1])
def test_batch_matches_scalar_draws_at_a_power_of_two_lanes_and_one_more(n):
    # 64 lanes jump in full rounds; one draw more opens a 65th lane
    batched, scalar = Rng(11).child("pow2"), Rng(11).child("pow2")
    got = batch_u64([batched, Rng(12)], [n, 3])[0]
    assert got.tolist() == [scalar.next_u64() for _ in range(n)]
    assert batched.next_u64() == scalar.next_u64()


def test_batch_emits_no_warning():
    # every multiply and shift overflows 64 bits, in the lanes and in
    # child_streams' splitmix64; arrays must wrap silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = batch_u64([Rng(0), Rng(2**64 - 1)], [S + 1, 40_000])
        streams = child_streams(Rng(2**64 - 1), "x", [0, 2**63, 2**64 - 1, 2**64])
    assert [d.size for d in draws] == [S + 1, 40_000]
    assert len(streams) == 4


def test_batch_rejects_bad_requests():
    stream = Rng(0)
    with pytest.raises(ValueError, match="sizes"):
        batch_u64([stream], [1, 2])
    with pytest.raises(ValueError, match="twice"):
        batch_u64([stream, stream], [1, 2])
    with pytest.raises(ValueError, match="non-negative"):
        batch_u64([stream], [-1])
    with pytest.raises(TypeError):
        batch_u64([stream], [1.5])
    assert stream.next_u64() == Rng(0).next_u64()


# -- batched normals -----------------------------------------------------------

@pytest.mark.parametrize("count", [0, 1, 2, 9, 300])
def test_batch_normal_matches_scalar_normals(count):
    batched = [Rng(23).child("normal", k) for k in range(40)]
    scalar = [Rng(23).child("normal", k) for k in range(40)]
    got = batch_normal(batched, count, 0.25, 1.5)
    assert got.dtype == np.float64 and got.shape == (40, count)
    assert got.tolist() == [[s.normal(0.25, 1.5) for _ in range(count)] for s in scalar]
    # each stream continues exactly where the scalar calls left it
    assert [s.next_u64() for s in batched] == [s.next_u64() for s in scalar]


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=2**64 - 1),
       st.sampled_from([0.0, 0.5, 3.0]))
@settings(max_examples=25, deadline=None)
def test_batch_normal_matches_scalar_normals_for_any_streams(count, seed, sigma):
    batched = [Rng(seed).child(k) for k in range(300)]
    got = batch_normal(batched, count, -1.0, sigma)
    for k, stream in enumerate(batched):
        ref = Rng(seed).child(k)
        assert got[k].tolist() == [ref.normal(-1.0, sigma) for _ in range(count)]
        assert stream.next_u64() == ref.next_u64()


def test_batch_normal_of_no_streams_and_bad_sigma():
    assert batch_normal([], 3).shape == (0, 3)
    stream = Rng(4)
    with pytest.raises(ValueError, match="sigma"):
        batch_normal([stream], 2, 0.0, -1.0)
    assert stream.next_u64() == Rng(4).next_u64()


# -- array-derived child streams -------------------------------------------------

def _words(stream):
    return stream._seed, stream._s0, stream._s1, stream._s2, stream._s3


CHILD_IDS = [0, 1, 2, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 7, 2**70 + 3, -1]


@pytest.mark.parametrize("tag", ["noise", "proxy", "", 0, 7, 2**64 - 1, 2**64 + 1])
def test_child_streams_equal_scalar_children(tag):
    root = Rng(29)
    got = child_streams(root, tag, CHILD_IDS)
    assert [_words(s) for s in got] == [_words(root.child(tag, i)) for i in CHILD_IDS]
    # the derived streams draw as the scalar ones do, and the parent is untouched
    assert [s.next_u64() for s in got] == [root.child(tag, i).next_u64() for i in CHILD_IDS]
    assert root.next_u64() == Rng(29).next_u64()


def test_child_streams_take_numpy_ids_and_no_ids():
    root = Rng(3)
    ids = np.array([5, 0, 5, 2**40], dtype=np.int64)
    assert ([_words(s) for s in child_streams(root, "a", ids)]
            == [_words(root.child("a", int(i))) for i in ids])
    assert child_streams(root, "a", []) == []
    with pytest.raises(TypeError):
        child_streams(root, "a", [1.5])


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.one_of(st.text(max_size=6), st.integers(min_value=0, max_value=2**66)),
       st.lists(st.integers(min_value=0, max_value=2**66), max_size=20))
@settings(max_examples=50, deadline=None)
def test_child_streams_equal_scalar_children_for_any_ids(seed, tag, ids):
    root = Rng(seed)
    got = child_streams(root, tag, ids)
    assert [_words(s) for s in got] == [_words(root.child(tag, i)) for i in ids]
