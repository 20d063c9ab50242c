"""Property tests for the partialled-out intercept kernel.

For random small tables under several transforms, the kernel's R1, R2
and R2P estimates and variances must match the closed-form oracles, and
must not change when the pairs are listed in another order or when the
two units of some pairs trade places (which flips the sign of v and of
d for those pairs and leaves y and m alone).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paired_adjust import TransformSpec, run_monte_carlo, substream
from paired_adjust.dgp import PotentialOutcomeSample
from paired_adjust.experiment_model import block_widths, transformed_blocks
from paired_adjust.randomization_engine import _partialled_stats
from paired_adjust.rng import ROLE_ASSIGN

from oracles import r1_oracle, r2_oracle, superpop_oracle

RTOL = 1e-8
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
WANT = ("R1", "R2", "R2P")
T = TransformSpec
TRANSFORMS = [
    (T.identity(), T.identity()),
    (T.power(2), T.log()),
    (T.select([1, 2]), T.select([3])),
    (T.select([2]), T.select([])),
]


@st.composite
def tables(draw):
    """(d, m, signs, y, rng) for one table and three assignments, n > K + 2."""
    f, g = draw(st.sampled_from(TRANSFORMS))
    k = 1 + sum(block_widths(f, g, 4))
    n = draw(st.integers(k + 3, k + 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.exp(0.5 * rng.standard_normal((n, 2, 4)))  # positive, so log applies
    d, m = transformed_blocks(x, f, g)
    signs = 2.0 * rng.integers(0, 2, size=(3, n)) - 1.0
    y = draw(st.floats(0.1, 10.0)) * rng.standard_normal((3, n)) + draw(st.floats(-5.0, 5.0))
    return d, m, signs, y, rng


def kernel(d, m, signs, y):
    """{id: (tau, s2)} per assignment, from one kernel call."""
    stats = _partialled_stats(d[None], m[None], signs[None], y[None], WANT)
    return {est: (tau[0], s2[0]) for est, (tau, s2) in stats.items()}


def assert_same(got, want, y):
    for est in WANT:
        assert got[est][0] == pytest.approx(want[est][0], rel=RTOL, abs=RTOL * np.abs(y).max())
        assert got[est][1] == pytest.approx(want[est][1], rel=RTOL)


@PROPERTY
@given(tables())
def test_matches_closed_form_oracles(table):
    d, m, signs, y, _ = table
    got = kernel(d, m, signs, y)
    want = {est: (np.empty(3), np.empty(3)) for est in WANT}
    for b in range(3):
        want["R1"][0][b], want["R1"][1][b] = r1_oracle(d, signs[b], y[b])
        tau, s2, beta_m = r2_oracle(d, m, signs[b], y[b])
        want["R2"][0][b], want["R2"][1][b] = tau, s2
        want["R2P"][0][b], want["R2P"][1][b] = tau, superpop_oracle(m, beta_m, s2)
    assert_same(got, want, y)


@PROPERTY
@given(tables())
def test_invariant_to_pair_order(table):
    d, m, signs, y, rng = table
    perm = rng.permutation(y.shape[1])
    assert_same(kernel(d[perm], m[perm], signs[:, perm], y[:, perm]), kernel(d, m, signs, y), y)


@PROPERTY
@given(tables())
def test_invariant_to_swapping_units_within_pairs(table):
    d, m, signs, y, rng = table
    flip = np.where(rng.random(y.shape[1]) < 0.5, -1.0, 1.0)
    assert_same(kernel(d * flip[:, None], m, signs * flip, y), kernel(d, m, signs, y), y)


@pytest.mark.parametrize("block", ["d", "m"])
def test_duplicated_column_makes_every_row_singular(block):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((16, 2, 4))
    x[..., 2] = x[..., 0]  # x3 duplicates x1, so both d and m repeat a column
    f, g = (T.select([1, 3]), T.select([2])) if block == "d" else (T.select([2]), T.select([1, 3]))
    d, m = transformed_blocks(x, f, g)
    signs = 2.0 * rng.integers(0, 2, size=(64, 16)) - 1.0
    y = rng.standard_normal((64, 16))
    stats = _partialled_stats(d[None], m[None], signs[None], y[None], WANT)
    singular = ("R1", "R2", "R2P") if block == "d" else ("R2", "R2P")
    for est in singular:
        assert np.isnan(stats[est][0]).all() and np.isnan(stats[est][1]).all()
    if block == "m":
        assert np.isfinite(stats["R1"][1]).all()

    sample = PotentialOutcomeSample(
        r_t=rng.standard_normal((16, 2)), r_c=rng.standard_normal((16, 2)), x=x
    )
    mc = run_monte_carlo(sample, 200, f=f, g=g, estimators=WANT,
                         rng=substream(51, ROLE_ASSIGN))
    for est in singular:
        assert mc.per[est].errors == 200
