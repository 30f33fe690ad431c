import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from driftlab.rng import (
    StreamRows,
    _entropy,
    _words,
    replicate_normals,
    seed_sequence_keys,
    stream,
)


def test_same_key_same_draws():
    a = stream(7, "x", 3).standard_normal(100)
    b = stream(7, "x", 3).standard_normal(100)
    assert np.array_equal(a, b)


def test_different_keys_differ():
    a = stream(7, "x", 3).standard_normal(100)
    b = stream(7, "x", 4).standard_normal(100)
    c = stream(8, "x", 3).standard_normal(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_tuple_seed_flattens():
    assert np.array_equal(
        stream((7, "x"), 3).standard_normal(10),
        stream(7, "x", 3).standard_normal(10),
    )


def test_string_and_int_ids_are_distinct_namespaces():
    a = stream(0, "1").standard_normal(8)
    b = stream(0, 1).standard_normal(8)
    assert not np.array_equal(a, b)


def test_bad_id_type_rejected():
    with pytest.raises(TypeError):
        stream(0, 1.5)


def test_replicate_normals_rows_match_per_replicate_streams():
    z = replicate_normals(11, 5, (4,), "rep")
    for r in range(5):
        assert np.array_equal(z[r], stream(11, "rep", r).standard_normal(4))


@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=0, max_value=1000))
def test_streams_reproducible_for_any_key(seed, rep):
    assert stream(seed, rep).standard_normal() == stream(seed, rep).standard_normal()


# key parts: ints below 2**32 (one word), from 2**32 on (two), strings (a 64-bit code)
_part = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.text(max_size=6))


def _seed_sequence_rows(entropy: list, n: int) -> np.ndarray:
    return np.array([np.random.SeedSequence(entropy + [r]).generate_state(2, np.uint64)
                     for r in range(n)])


@settings(derandomize=True, max_examples=200)
@given(st.lists(st.integers(0, 2**32 - 1), max_size=12), st.lists(_part, max_size=8),
       st.integers(1, 20))
@example([1, 2, 3], [7, 2**40], 5)  # 3 words: the blocked first-pool pass, always tried
@example([1, 2, 3, 4], [2**40, 7, 9], 5)  # 4 words: numpy's pool of the shared words
@example(list(range(40)), [2**33 + k for k in range(20)], 5)  # 40 words, beyond the strategy's
def test_key_pass_equals_numpy_seed_sequence(words, parts, n):
    # the pass re-implements numpy's SeedSequence mixing; if numpy ever changes
    # it, this fails instead of the draws changing silently.  Prefixes of 0-3
    # words mix the row word in the pool's first pass; longer ones take numpy's
    # pool of their words and mix the row word in the trailing pass
    for prefix, entropy in ((words, words), (_words(tuple(parts), ()), _entropy(tuple(parts), ()))):
        keys = seed_sequence_keys(prefix, n)
        assert keys.dtype == np.uint64 and keys.shape == (n, 2)
        assert np.array_equal(keys, _seed_sequence_rows(entropy, n))


@settings(derandomize=True, max_examples=200)
@given(st.lists(_part, max_size=6), st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3,
                                             unique=True),
       st.lists(_part, max_size=2), st.integers(1, 20))
@example([], [1, 2], ["x"], 5)  # agreeing on 0, 3, 4 and 6 words, always tried
@example([7, 8, 9], [1, 2], [], 5)
@example([7, "ab", 9], [1, 2, 3], [2**40], 5)
@example([1, 2, 3, 4, 5, 6], [1, 2], [2**33], 5)
def test_a_stack_of_prefixes_equals_numpy_seed_sequence(head, parted, tail, n):
    # prefixes (*head, p, *tail), one per p: they agree on head's 0-12 words and
    # part at p, so the rows share fewer than four words, or four or more
    prefixes = [_words(tuple(head), ()) + [p] + _words(tuple(tail), ()) for p in parted]
    stack = seed_sequence_keys(prefixes, n)
    assert stack.dtype == np.uint64 and stack.shape == (len(parted), n, 2)
    for p, rows in zip(parted, stack):
        entropy = _entropy(tuple(head), ()) + [p] + _entropy(tuple(tail), ())
        assert np.array_equal(rows, _seed_sequence_rows(entropy, n))


def test_a_ragged_stack_of_prefixes_raises():
    with pytest.raises(ValueError):
        seed_sequence_keys([[1, 2], [3]], 4)
    with pytest.raises(ValueError):  # 2**32 is two words, 5 one
        StreamRows([(7, 2**32), (7, 5)], 4)


def test_a_list_of_keys_serves_each_keys_rows():
    rows = StreamRows([(3, "pf", "prop"), (3, "pf", "resample")], 6, "x")
    for r in range(6):
        assert rows[0, r].random() == stream((3, "pf", "prop"), "x", r).random()
        assert rows[1, r].random() == stream((3, "pf", "resample"), "x", r).random()


def test_rows_take_numpy_integer_indices():
    # the keys are a list of Python ints, which numpy integers index as ints do
    rows = StreamRows(5, 4, "x")
    stack = StreamRows([(5, "a"), (5, "b")], 4, "x")
    for r in range(4):
        for i in (np.int64(r), np.uint32(r)):
            assert np.array_equal(rows[i].standard_normal(3), stream(5, "x", r).standard_normal(3))
            for k, key in enumerate([(5, "a"), (5, "b")]):
                assert np.array_equal(stack[np.int64(k), i].standard_normal(3),
                                      stream(key, "x", r).standard_normal(3))


_id = st.one_of(st.sampled_from([0, 2**32, 2**64 - 1]), st.integers(0, 2**64 - 1),
                st.text(max_size=6))


@settings(max_examples=60)
@given(seed=st.one_of(st.integers(0, 2**64 - 1),
                      st.tuples(st.integers(0, 2**40), _id)),
       ids=st.lists(_id, max_size=3), n=st.integers(1, 50))
def test_batched_rows_equal_per_row_streams(seed, ids, n):
    # row r of replicate_normals and of StreamRows draws what a fresh
    # stream(seed, *ids, r) draws, whatever the key layout
    z = replicate_normals(seed, n, (2, 3), *ids)
    expected = np.stack([stream(seed, *ids, r).standard_normal((2, 3)) for r in range(n)])
    assert np.array_equal(z, expected)
    rows = StreamRows(seed, n, *ids)
    for r in reversed(range(n)):
        gen, ref = rows[r], stream(seed, *ids, r)
        assert gen.random() == ref.random()
        assert np.array_equal(gen.integers(0, 100, 3, dtype=np.int32),
                              ref.integers(0, 100, 3, dtype=np.int32))
        assert np.array_equal(gen.standard_normal(4), ref.standard_normal(4))


def test_replicate_normals_handles_empty_and_scalar_shapes():
    assert replicate_normals(3, 0, (4, 2), "x").shape == (0, 4, 2)
    z = replicate_normals(3, 4, (), "x")
    assert z.shape == (4,)
    assert np.array_equal(z, [stream(3, "x", r).standard_normal() for r in range(4)])
