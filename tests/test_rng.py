import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


@given(st.lists(st.integers(0, 2**32 - 1), max_size=9), st.integers(1, 20),
       st.lists(st.one_of(st.integers(0, 2**64 - 1), st.text(max_size=6)), max_size=4),
       st.lists(st.one_of(st.integers(2**32, 2**64 - 1), st.text(max_size=6)), min_size=1,
                max_size=3))
def test_key_pass_equals_numpy_seed_sequence(prefix, n, key, names):
    # the vectorised pass re-implements numpy's SeedSequence mixing; if numpy
    # ever changes it, this fails instead of the draws changing silently.
    # Prefixes of 0-3 words mix the row word in the pool's first pass, longer
    # ones in the trailing pass.
    keys = seed_sequence_keys(prefix, n)
    assert keys.dtype == np.uint64 and keys.shape == (n, 2)
    for r in range(n):
        expected = np.random.SeedSequence(prefix + [r]).generate_state(2, np.uint64)
        assert np.array_equal(keys[r], expected)
    # a stack of prefixes (key..., name), one per name: every name is two words
    # (an int of 2**32 or more, a string's 64-bit code), so the stack is even
    stack = seed_sequence_keys([_words(0, key + [name]) for name in names], n)
    assert stack.dtype == np.uint64 and stack.shape == (len(names), n, 2)
    for name, rows in zip(names, stack):
        for r in range(n):
            expected = np.random.SeedSequence(_entropy(0, key + [name]) + [r])
            assert np.array_equal(rows[r], expected.generate_state(2, np.uint64))


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
