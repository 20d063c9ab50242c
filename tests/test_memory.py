"""Memory as a tier-1 contract: the traced peaks of warm calls.

numpy reports its data allocations to ``tracemalloc``, so a call's
traced peak repeats for a fixed tree and numpy version. Each call is
made once untraced first, so that caches and lazy imports do not
count. Exact enumeration makes every sign product from two half tables
and computes in one workspace per kernel call, sized by the kernel's
grid budget, so what it holds beyond its outputs does not grow with the
2^n assignments.
"""

import tracemalloc

import numpy as np

from paired_adjust import TransformSpec, assignment_signs, enumerate_exact, generate_sample

IDENT = TransformSpec.identity()


def _traced_peak(call):
    """The result of a warm ``call()`` and the peak bytes it traced."""
    call()
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_enumeration_holds_no_more_beyond_its_outputs_as_n_grows():
    # Measured 3.2, 3.2 and 2.9 MB at n = 12, 14 and 16 (all four
    # estimators, identity transforms): the workspace's pass part is the
    # same at every n >= 12. With a (2^n, n) sign array it was 3.5, 5.0
    # and 12.6 MB. The 1.25 leaves room for numpy's own temporaries.
    beyond = {}
    for n in (12, 14, 16):
        sample = generate_sample(n, "nonparallel", seed=n)
        dist, peak = _traced_peak(lambda: enumerate_exact(sample, IDENT, IDENT))
        outputs = {id(a): a.nbytes for arrays in (dist.tau_hat, dist.s2) for a in arrays.values()}
        beyond[n] = peak - sum(outputs.values())
    assert max(beyond.values()) <= 1.25 * beyond[12], beyond


def test_sign_decoding_holds_nothing_as_large_as_its_result():
    # The bits are unpacked into uint8, an eighth of the float result:
    # measured 1.13 times the result, against 2.0 with int64 bits.
    codes = np.arange(2**16)
    signs, peak = _traced_peak(lambda: assignment_signs(codes, 16))
    assert peak <= 1.25 * signs.nbytes
