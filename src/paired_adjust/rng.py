"""Seeded random streams for reproducible, scheduler-independent runs.

All randomness in the package flows through Philox counter-based
generators keyed by ``(master_seed, role, index)``. A consumer that
needs the stream for, say, the assignments of sample 17 asks for
``substream(seed, ROLE_ASSIGN, 17)`` and gets the same stream no matter
which worker thread ends up running that sample, or how many workers
exist. Normal variates use numpy's ziggurat sampler; streams are
bit-reproducible across runs and platforms for a fixed numpy version.

A block of sample indices reads its streams through :func:`substreams`,
which yields, for each index i, a generator that draws bit for bit what
``substream(seed, role, i)`` draws. It does not build a ``SeedSequence``
and a ``Philox`` per index: :func:`stream_keys` computes every index's
Philox key with numpy's ``SeedSequence`` hash (NEP 19, after O'Neill's
``seed_seq``) in one vectorized pass, and one ``Philox`` is re-keyed
from index to index with a zero counter and empty buffers. Assignment
signs are read from any stream as raw 64-bit words (``random_raw``) and
decoded by the package's one sign decoder,
``randomization_engine._signs_of_words``, in ``randomize`` and in a
study alike, so they depend on the raw words alone, which NEP 19 keeps
fixed, and on no ``Generator`` method.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import Union

import numpy as np

from .errors import int_at_least

# Stream roles. Fixed small integers, never reused for another purpose.
ROLE_SAMPLE = 1   # science-table generation, one stream per sample index
ROLE_ASSIGN = 2   # treatment assignments, one stream per sample index
ROLE_GENERIC = 3  # one-off streams (diagnostics, ad hoc draws)

# numpy's SeedSequence constants: pool size, the two hash multipliers
# (A while mixing entropy into the pool, B while reading state out) and
# the two mixing multipliers.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

_Word = Union[int, np.ndarray]


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the generator at ``path`` under ``master_seed``.

    Distinct paths give statistically independent streams; the same
    path always gives the same stream. ``master_seed`` and ``path`` are
    non-negative integers, ``path`` conventionally ``(role, index)``.
    """
    seed = int_at_least(master_seed, 0, "seed")
    path = tuple(int_at_least(key, 0, "stream path") for key in path)
    seq = np.random.SeedSequence(entropy=seed, spawn_key=path)
    return np.random.Generator(np.random.Philox(seq))


def _words(value: int, name: str) -> list[int]:
    """``value``'s little-endian uint32 words, as ``SeedSequence`` coerces an int."""
    value = int_at_least(value, 0, name)
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hashes(init: int, mult: int) -> Iterator[tuple[int, int]]:
    """The (xor, multiply) constants of successive ``SeedSequence`` hash calls."""
    const = init
    while True:
        nxt = const * mult & _MASK32
        yield const, nxt
        const = nxt


# A hash step takes a uint32 word as a Python int or as a uint64 array
# of words, and keeps every product below 2^64 before it masks it.
def _hash(value: _Word, xor: _Word, mult: _Word) -> _Word:
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x: _Word, y: _Word) -> _Word:
    out = (_MIX_L * x - _MIX_R * y) & _MASK32
    return out ^ out >> 16


def stream_keys(master_seed: int, role: int, idxs: Sequence[int]) -> np.ndarray:
    """The (T, 2) uint64 Philox keys of ``substream(master_seed, role, i)``, i in ``idxs``.

    Row t is ``SeedSequence(entropy=master_seed, spawn_key=(role,
    idxs[t])).generate_state(2, np.uint64)``, the key ``Philox`` takes
    from that sequence. The entropy is the seed's words padded with
    zeros to the pool size, then the role's words, then the index, which
    must be one word: an index outside [0, 2^32) raises ``BadArgument``.
    Every word but the index is the same for all indices, so those words
    are hashed into the pool once. The index, always past the pool, is
    then mixed into each pool word and the state read out for every
    index at once, as (pool, T) arrays.
    """
    for end in (min(idxs, default=0), max(idxs, default=0)):
        int_at_least(end, 0, "stream indices", high=_MASK32)
    idx = np.asarray(idxs, dtype=np.int64).reshape(-1)
    seed = _words(master_seed, "seed")
    shared = [*seed, *[0] * (_POOL - len(seed)), *_words(role, "role")]

    a = _hashes(_INIT_A, _MULT_A)
    pool = [_hash(word, *next(a)) for word in shared[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(a)))
    for word in shared[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hash(word, *next(a)))

    def steps(consts: Iterator[tuple[int, int]]) -> np.ndarray:
        return np.array([next(consts) for _ in range(_POOL)], dtype=np.uint64).T[..., None]

    column = np.array(pool, dtype=np.uint64)[:, None]
    mixed = _mix(column, _hash(idx.astype(np.uint64), *steps(a)))
    out = _hash(mixed, *steps(_hashes(_INIT_B, _MULT_B)))
    return (out[0::2] | out[1::2] << 32).T


def substreams(
    master_seed: int, role: int, idxs: Sequence[int]
) -> Iterator[np.random.Generator]:
    """Yield, for each i in ``idxs``, a generator that draws what ``substream(master_seed, role, i)`` draws.

    The keys come from :func:`stream_keys`, and every yielded generator
    is the same object over one ``Philox``, re-keyed before each yield
    (counter 0, empty buffer, no spare 32-bit word). Draw from it before
    asking for the next index. The ``Philox`` state setter reads its
    counter, key and buffer entry by entry, and an entry of a uint64
    array costs a numpy scalar each time, so the keys are handed over as
    Python ints, through one state dict whose key alone changes.
    """
    keys = stream_keys(master_seed, role, idxs).tolist()
    bits = np.random.Philox(0)  # re-keyed before every yield
    rng = np.random.Generator(bits)
    zeros = [0] * 4  # the setter copies it
    inner: dict[str, list[int]] = {"counter": zeros}  # the key is set per index
    state = {
        "bit_generator": "Philox",
        "state": inner,
        "buffer": zeros,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key in keys:
        inner["key"] = key
        bits.state = state
        yield rng
