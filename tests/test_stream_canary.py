"""Stream canary: pinned digests of the draws every report is built from.

numpy keeps a bit generator's raw stream fixed, but a feature release may
change what ``Generator`` methods such as ``standard_normal`` make of it
(NEP 19). Signs use no such method: the package decodes them from raw
words itself. Each layer is checked on top of the one below it, so the
first failing assertion names the layer that moved, where an acceptance
window or a report would only show that something did. The table's
digest also depends on numpy's float64 ``exp``, whose result may differ
in the last bit between CPU instruction sets. Two successive odd-sized
sign draws from one stream pin that a draw leaves no spare half word
for the next.
"""

import hashlib

import numpy as np

from paired_adjust.dgp import generate_sample
from paired_adjust.randomization_engine import randomize
from paired_adjust.rng import ROLE_ASSIGN, ROLE_SAMPLE, substream

RAW = "ef7c0508f9f8519db5249ecc4bf218327380d147672490cdc83f6b7c45f0062c"
NORMALS = "faca504c944440fca3753178d2c0edc67a9087cec84b3cb2144009f41d43befb"
TABLE = "01e86267b3e53939739a96d279b451332ed34988475c2408277ad12591b48d00"
SIGNS = "922380df3c1f6ad7361a1753b1b4c975a89a44016a332c85d88028e0e78ec51f"
TWO_DRAWS = "004d81428e2bd119823a59dbe2a0e5e9a9ad4d2fe61e1d6b1dfee6ac4072d055"


def _digest(*arrays):
    """SHA-256 of the arrays' values, little-endian, one after another."""
    return hashlib.sha256(
        b"".join(np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")).tobytes() for a in arrays)
    ).hexdigest()


def test_streams_draw_what_they_drew():
    raw = substream(1, ROLE_SAMPLE, 0).bit_generator.random_raw(64)
    assert _digest(raw) == RAW, (
        "Philox's raw words moved: numpy's SeedSequence keying or the Philox bit generator "
        "changed, and every draw with them")
    normals = substream(1, ROLE_SAMPLE, 0).standard_normal(1000)
    assert _digest(normals) == NORMALS, (
        "Generator.standard_normal moved over unchanged raw words: numpy's ziggurat sampler "
        "changed, and every generated table with it")
    sample = generate_sample(25, "nonparallel", rng=substream(1, ROLE_SAMPLE, 0))
    assert _digest(sample.r_t, sample.r_c, sample.w, sample.x) == TABLE, (
        "generate_sample's table moved over unchanged normals: numpy's float64 ufuncs "
        "(exp, division) or the package's own arithmetic changed")
    signs = randomize(25, substream(1, ROLE_ASSIGN, 0))
    assert _digest(signs) == SIGNS, (
        "randomize's signs moved over unchanged raw words: the package's sign decoder, "
        "randomization_engine._signs_of_words, changed")
    rng = substream(1, ROLE_ASSIGN, 0)
    assert _digest(randomize(25, rng), randomize(25, rng)) == TWO_DRAWS, (
        "a second draw of 25 signs from one stream moved over an unchanged first: randomize "
        "no longer starts each draw on a fresh raw word")
