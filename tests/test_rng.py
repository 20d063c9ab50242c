"""Block stream keys and draws against numpy's own SeedSequence and Philox.

``stream_keys`` re-implements numpy's ``SeedSequence`` hash, so it is
checked against numpy itself: against ``generate_state`` and against
the key ``Philox`` takes from the sequence. A numpy change to either one
fails here. The generators ``substreams`` yields share one re-keyed
``Philox``, so their draws are checked against fresh ``substream`` calls
with draw counts that leave a spare 32-bit word behind, which a re-key
must clear. ``randomize`` and a study both decode signs from raw words
with ``_signs_of_words``, so a study's signs are checked against
``randomize`` on fresh streams, and ``randomize`` on a fresh generator
of each 64-bit bit generator against ``Generator.integers(0, 2)``, which
draws the same signs today and stays here as the reference.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paired_adjust.randomization_engine import StudyConfig, _StudyStreams, randomize
from paired_adjust.rng import (
    ROLE_ASSIGN,
    ROLE_GENERIC,
    ROLE_SAMPLE,
    stream_keys,
    substream,
    substreams,
)

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
WIDE_SEEDS = (0, 2**32 - 1, 2**32, 2**64, 2**130)
SEEDS = st.one_of(st.sampled_from(WIDE_SEEDS), st.integers(0, 2**33), st.integers(0, 2**140))
ROLES = st.sampled_from([ROLE_SAMPLE, ROLE_ASSIGN, ROLE_GENERIC])
INDICES = st.lists(
    st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1)), max_size=6
)


def _sequence(seed, role, i):
    return np.random.SeedSequence(entropy=seed, spawn_key=(role, i))


@PROPERTY
@given(seed=SEEDS, role=ROLES, idxs=INDICES)
@example(seed=0, role=ROLE_SAMPLE, idxs=[0, 2**32 - 1])
@example(seed=2**32 - 1, role=ROLE_ASSIGN, idxs=[0, 2**32 - 1])
@example(seed=2**32, role=ROLE_GENERIC, idxs=[0, 2**32 - 1])
@example(seed=2**64, role=ROLE_SAMPLE, idxs=[0, 2**32 - 1])
@example(seed=2**130, role=ROLE_ASSIGN, idxs=[0, 2**32 - 1])
def test_keys_are_seed_sequence_state_and_philox_key(seed, role, idxs):
    keys = stream_keys(seed, role, idxs)
    state = [_sequence(seed, role, i).generate_state(2, np.uint64) for i in idxs]
    philox = [np.random.Philox(_sequence(seed, role, i)).state["state"]["key"] for i in idxs]
    assert keys.dtype == np.uint64 and keys.shape == (len(idxs), 2)
    assert np.array_equal(keys, np.reshape(state, (-1, 2)))
    assert np.array_equal(keys, np.reshape(philox, (-1, 2)))


@PROPERTY
@given(
    seed=SEEDS,
    role=ROLES,
    idxs=INDICES,
    n=st.integers(1, 30),
    b=st.integers(1, 4),
)
@example(seed=7, role=ROLE_ASSIGN, idxs=[0, 1, 2], n=25, b=1)
@example(seed=2**40 + 3, role=ROLE_SAMPLE, idxs=[5, 5, 2**32 - 1], n=13, b=3)
def test_reused_generator_draws_what_fresh_substreams_draw(seed, role, idxs, n, b):
    # Odd n leaves a spare 32-bit word in the Philox state after
    # ``integers``; the next index must not start from it.
    drawn = [
        (rng.standard_normal(10 * n), randomize(n, rng, b), rng.integers(0, 2, n))
        for rng in substreams(seed, role, idxs)
    ]
    assert len(drawn) == len(idxs)
    for i, (normals, signs, more) in zip(idxs, drawn):
        fresh = substream(seed, role, i)
        assert np.array_equal(normals, fresh.standard_normal(10 * n))
        assert np.array_equal(signs, randomize(n, fresh, b))
        assert np.array_equal(more, fresh.integers(0, 2, n))


_BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64]


@pytest.mark.parametrize("bits", _BIT_GENERATORS, ids=lambda bits: bits.__name__)
@pytest.mark.parametrize("n,b", [(25, None), (24, None), (7, 3), (8, 3), (0, None), (1, 1)])
def test_randomize_on_a_fresh_generator_draws_what_integers_draws(bits, n, b):
    shape = n if b is None else (b, n)
    signs = randomize(n, np.random.Generator(bits(17)), b)
    reference = 2 * np.random.Generator(bits(17)).integers(0, 2, shape) - 1
    assert signs.shape == reference.shape
    assert np.array_equal(signs, reference)


def test_randomize_refuses_a_32_bit_bit_generator():
    with pytest.raises(ValueError, match="MT19937"):
        randomize(4, np.random.Generator(np.random.MT19937(17)))


def test_reused_generator_starts_each_draw_on_a_fresh_word():
    # 25 signs take 13 words and leave the last one's high half unread.
    rng = np.random.Generator(np.random.PCG64(17))
    first, second = randomize(25, rng), randomize(25, rng)
    words = np.random.Generator(np.random.PCG64(17)).bit_generator.random_raw(26)
    halves = words.astype("<u8").view("<u4")
    top = np.where(halves >> 31 == 1, 1.0, -1.0)
    assert np.array_equal(first, top[:25])
    assert np.array_equal(second, top[26:51])


def test_rekeyed_generator_matches_substream_over_many_indices():
    # About a quarter of all key words are at least 2^63, so a thousand
    # indices exercise the top bit of both words many times over.
    idxs = range(1000)
    keys = stream_keys(5, ROLE_SAMPLE, idxs)
    assert (keys >= 2**63).any(axis=0).all()
    for role in (ROLE_SAMPLE, ROLE_ASSIGN):
        for i, rng in zip(idxs, substreams(5, role, idxs)):
            fresh = substream(5, role, i)
            assert np.array_equal(rng.standard_normal(3), fresh.standard_normal(3)), i
            raw, fresh_raw = rng.bit_generator.random_raw(3), fresh.bit_generator.random_raw(3)
            assert np.array_equal(raw, fresh_raw), i


@PROPERTY
@given(
    seed=SEEDS,
    idxs=INDICES,
    n=st.integers(1, 30),
    b=st.integers(1, 4),
    per_slab=st.integers(1, 4),
    per_call=st.integers(1, 4),
)
@example(seed=0, idxs=[0, 1], n=1, b=1, per_slab=1, per_call=1)
@example(seed=2**130, idxs=[0, 2**32 - 1, 7], n=25, b=1, per_slab=3, per_call=2)
@example(seed=2**32, idxs=[3, 3, 0], n=100, b=200, per_slab=2, per_call=1)
def test_block_signs_are_what_randomize_draws_from_fresh_substreams(
    seed, idxs, n, b, per_slab, per_call
):
    # Odd b * n ends a row on a low half word, whose high half is dropped.
    # A slab's normals are read before its signs, a call at a time. The
    # signs are the streams' buffer, valid until the next read, so each
    # read is checked before the next is made.
    config = StudyConfig(
        mode="sate", setting="parallel", n=n, samples=1, randomizations=b, seed=seed
    )
    streams = _StudyStreams(config, idxs)
    read = []
    for lo in range(0, len(idxs), per_slab):
        slab = idxs[lo : lo + per_slab]
        normals = streams.normals(len(slab))
        for c in range(0, len(slab), per_call):
            call = slab[c : c + per_call]
            for i, row, signs in zip(call, normals[c : c + per_call], streams.signs(len(call))):
                assert row.shape == (10 * n,) and signs.shape == (b, n)
                assert np.array_equal(row, substream(seed, ROLE_SAMPLE, i).standard_normal(10 * n))
                assert np.array_equal(signs, randomize(n, substream(seed, ROLE_ASSIGN, i), b))
                read.append(i)
    assert read == list(idxs)


@pytest.mark.parametrize("bad", [2**32, 2**40, 2**64, 2**70, -1])
def test_index_outside_one_word_is_refused(bad):
    with pytest.raises(ValueError, match="stream indices"):
        stream_keys(3, ROLE_SAMPLE, [0, bad])
    with pytest.raises(ValueError, match="stream indices"):
        next(substreams(3, ROLE_SAMPLE, [bad]))


def test_negative_seed_is_refused_like_seed_sequence():
    with pytest.raises(ValueError):
        _sequence(-1, ROLE_SAMPLE, 0)
    with pytest.raises(ValueError):
        stream_keys(-1, ROLE_SAMPLE, [0])


def test_empty_block():
    assert stream_keys(3, ROLE_SAMPLE, range(0)).shape == (0, 2)
    assert list(substreams(3, ROLE_SAMPLE, [])) == []
