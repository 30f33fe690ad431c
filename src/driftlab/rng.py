"""Deterministic random streams.

Every stochastic routine in the toolkit draws from a counter-based Philox
generator keyed by ``(seed, *ids)``, where the ids identify the replicate,
observation pair, filter step, etc.  Streams for distinct key tuples are
independent, and a given key always yields the same numbers, so serial and
parallel replicate loops produce bit-identical results.

``stream`` builds one generator through numpy's ``SeedSequence``.  Loops over
rows ``(seed, *ids, r)``, r = 0..n-1, use ``StreamRows`` instead: it derives
all n Philox keys in one vectorised uint32 pass that reproduces
``SeedSequence``'s mixing (shared prefix words, then the row index as the last
word, then ``generate_state(2, uint64)``), and serves row r by setting one
reused Philox to ``{key: k[r], counter: 0}``.  Row r is therefore bit-identical
to ``stream(seed, *ids, r)``.  The generator a row hands out is re-keyed by the
next row taken, so it is valid only until then and must stay in the thread
that took it.  Given a list of keys, one pass derives the rows of them all.
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

_U64 = 2**64
_U32 = 0xFFFFFFFF

# numpy's SeedSequence constants (after O'Neill's seed_seq_fe)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


@functools.lru_cache(maxsize=1024)
def _encode_str(part: str) -> int:
    digest = hashlib.blake2s(part.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _encode(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) % _U64
    if isinstance(part, str):
        return _encode_str(part)
    raise TypeError(f"stream ids must be int or str, got {type(part).__name__}")


def _entropy(seed, ids) -> list:
    """The key ``(seed, *ids)`` as SeedSequence entropy; a tuple seed is flattened."""
    parts = (list(seed) if isinstance(seed, tuple) else [seed]) + list(ids)
    return [_encode(p) for p in parts]


def stream(seed, *ids) -> np.random.Generator:
    """Generator for the substream keyed by ``(seed, *ids)``.

    ``seed`` may itself be a tuple key, which is flattened, so callers can
    thread composite keys like ``(seed, replicate)`` through APIs that take a
    single seed argument.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(_entropy(seed, ids))))


@functools.lru_cache(maxsize=64)
def _hash_consts(init: int, mult: int, n: int, ndim: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0..n-1, as uint32 along the first of ndim + 1 axes;
    read-only and cached, as every key pass asks for the same few."""
    out = np.array([init * pow(mult, k, 2**32) & _U32 for k in range(n)], dtype=np.uint32)
    out.flags.writeable = False
    return out.reshape((n,) + (1,) * ndim)


def _hashmix(value: np.ndarray, consts: np.ndarray, k: int, m: int) -> np.ndarray:
    """SeedSequence's hashmix for its hash calls k..k+m-1, one per row of the result."""
    value = (value ^ consts[k:k + m]) * consts[k + 1:k + m + 1]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> _XSHIFT)


def seed_sequence_keys(prefix, n: int) -> np.ndarray:
    """``SeedSequence(list(p) + [r]).generate_state(2, np.uint64)`` for r = 0..n-1: (n, 2) uint64
    for one prefix p, (m, n, 2) for an (m, w) stack (ragged: ValueError), in one pass.

    A prefix holds uint32 entropy words.  The pass follows numpy's
    ``SeedSequence.mix_entropy`` and ``generate_state`` step for step (pool of
    four words, hashmix constants in the same order); each step acts on every
    row at once.
    """
    prefix = np.asarray(prefix, dtype=np.uint32)
    n_words = prefix.shape[-1] + 1
    words = np.empty((max(n_words, _POOL_SIZE),) + prefix.shape[:-1] + (n,), dtype=np.uint32)
    words[:n_words - 1] = prefix.T[..., None]
    words[n_words - 1] = np.arange(n, dtype=np.uint32)
    words[n_words:] = 0  # the pool outgrows the entropy: hash zeros

    n_calls = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(n_words - _POOL_SIZE, 0)
    consts = _hash_consts(_INIT_A, _MULT_A, n_calls + 1, prefix.ndim)
    pool = _hashmix(words[:_POOL_SIZE], consts, 0, _POOL_SIZE)
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts, k, _POOL_SIZE - 1))
        k += _POOL_SIZE - 1
    for src in range(_POOL_SIZE, n_words):
        pool = _mix(pool, _hashmix(words[src], consts, k, _POOL_SIZE))
        k += _POOL_SIZE

    consts = _hash_consts(_INIT_B, _MULT_B, _POOL_SIZE + 1, prefix.ndim)
    state = _hashmix(pool, consts, 0, _POOL_SIZE).astype(np.uint64)
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=-1)


def _words(seed, ids) -> list:
    """The uint32 words SeedSequence makes of the key ``(seed, *ids)``: 32-bit limbs, 0 as one."""
    return [w for v in _entropy(seed, ids) for w in ((v & _U32, v >> 32) if v >> 32 else (v,))]


class StreamRows:
    """The streams ``stream(seed, *ids, r)``, r = 0..n-1, from keys derived in one pass.

    ``rows[r]`` re-keys one Philox generator to row r's key at counter 0 and
    returns it, so its draws equal a fresh ``stream(seed, *ids, r)``'s.  The
    generator is shared by all rows: it is valid only until the next row is
    taken, and must not leave the thread that took it.  ``seed`` may also be a
    list of keys of equally many words: ``rows[k, r]`` is then ``stream(seed[k],
    *ids, r)``, every key from one pass over the stack.  Keys are held as Python
    ints, which re-key Philox twice as fast as numpy's; r and k may be numpy ints.
    """

    def __init__(self, seed, n: int, *ids):
        prefix = [_words(s, ids) for s in seed] if isinstance(seed, list) else _words(seed, ids)
        self._keys = seed_sequence_keys(prefix, n).tolist()
        self._bitgen = np.random.Philox(0)
        self._gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state  # a fresh generator's: empty buffer, no cached word
        self._state["buffer"] = self._state["buffer"].tolist()

    def __getitem__(self, r) -> np.random.Generator:
        key = self._keys[r[0]][r[1]] if isinstance(r, tuple) else self._keys[r]
        self._state["state"] = {"key": key, "counter": (0, 0, 0, 0)}
        self._bitgen.state = self._state
        return self._gen


def replicate_normals(seed: int, n_reps: int, shape, *ids) -> np.ndarray:
    """Standard normals for ``n_reps`` replicates, row ``r`` from ``stream(seed, *ids, r)``.

    Returns an array of shape ``(n_reps, *shape)``.  Row r is bit-identical to
    what a serial per-replicate simulation drawing ``shape`` normals would see,
    so batched and per-replicate code paths agree exactly.
    """
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    out = np.empty((n_reps,) + shape)
    flat = out.reshape(n_reps, math.prod(shape))
    rows = StreamRows(seed, n_reps, *ids)
    for r in range(n_reps):
        rows[r].standard_normal(out=flat[r])
    return out
