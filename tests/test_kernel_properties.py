"""Property tests for the partialled-out intercept kernel.

For random small tables, given as pair effects and level gaps under
several transforms, the kernel's C, R1, R2 and R2P estimates and
variances must match the closed-form oracles on Y = effects + v*gaps,
and must not change when the pairs are listed in another order, when
the two units of some pairs trade places (which flips the sign of v, of
d and of the level gap for those pairs and leaves Y and m alone), or
when the covariate columns are given other units, up to the edges of
the float range. A constant added to every effect moves every estimate
by that constant and no variance. Negated signs fit as negated level
gaps, and as the twins the kernel fits beside each draw, bit for bit.
Exact enumeration matches the one-assignment-at-a-time oracle on every
code, and the study columns of both modes do not change under pair
order, unit swap or covariate units. The observed
responses that ``reveal`` builds give the Y of the level/effect identity
that the kernel takes in their place.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paired_adjust import (
    RankDeficient, StudyConfig, TransformSpec, enumerate_exact, reveal, run_monte_carlo, substream
)
from paired_adjust import randomization_engine as engine
from paired_adjust.dgp import PotentialOutcomeSample, stacked_tables
from paired_adjust.experiment_model import block_widths, transformed_blocks
from paired_adjust.kernel import Whitened, effects_and_gaps, sign_stats, times_of
from paired_adjust.randomization_engine import (
    _kernel_inputs,
    _pate_columns,
    _sate_columns,
    _StudyStreams,
)
from paired_adjust.rng import ROLE_ASSIGN

from oracles import enumerate_oracle, r1_oracle, r2_oracle, superpop_oracle

RTOL = 1e-8
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
WANT = ("C", "R1", "R2", "R2P")
T = TransformSpec
TRANSFORMS = [
    (T.identity(), T.identity()),
    (T.power(2), T.log()),
    (T.select([1, 2]), T.select([3])),
    (T.select([2]), T.select([])),
]


@st.composite
def tables(draw):
    """(d, m, signs, effects, gaps, rng) for one table and three assignments, n > K + 2."""
    f, g = draw(st.sampled_from(TRANSFORMS))
    k = 1 + sum(block_widths(f, g, 4))
    n = draw(st.integers(k + 3, k + 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.exp(0.5 * rng.standard_normal((n, 2, 4)))  # positive, so log applies
    d, m = transformed_blocks(x, f, g)
    signs = 2.0 * rng.integers(0, 2, size=(3, n)) - 1.0
    scale = draw(st.floats(0.1, 10.0))
    effects = scale * rng.standard_normal(n) + draw(st.floats(-5.0, 5.0))
    gaps = draw(st.floats(0.1, 10.0)) * rng.standard_normal(n)
    return d, m, signs, effects, gaps, rng


def kernel(d, m, signs, effects, gaps):
    """{id: (tau, s2)} per assignment, from one kernel call."""
    blocks = Whitened.of(d[None], m[None])
    stats = sign_stats(blocks, effects[None], gaps[None], times_of(signs[None]), len(signs), WANT)
    return {est: (tau[0], s2[0]) for est, (tau, s2) in stats.items()}


def responses(signs, effects, gaps):
    """Y = effects + v*gaps for each assignment, as the oracles take it."""
    return effects + signs * gaps


def assert_same(got, want, y, rtol=RTOL):
    for est in WANT:
        assert got[est][0] == pytest.approx(want[est][0], rel=rtol, abs=rtol * np.abs(y).max())
        assert got[est][1] == pytest.approx(want[est][1], rel=rtol)


@PROPERTY
@given(tables())
def test_matches_closed_form_oracles(table):
    d, m, signs, effects, gaps, _ = table
    y = responses(signs, effects, gaps)
    n = y.shape[1]
    got = kernel(d, m, signs, effects, gaps)
    want = {est: (np.empty(3), np.empty(3)) for est in WANT}
    for b in range(3):
        tau_c = y[b].mean()
        want["C"][0][b], want["C"][1][b] = tau_c, ((y[b] - tau_c) ** 2).sum() / (n * (n - 1))
        want["R1"][0][b], want["R1"][1][b] = r1_oracle(d, signs[b], y[b])
        tau, s2, beta_m = r2_oracle(d, m, signs[b], y[b])
        want["R2"][0][b], want["R2"][1][b] = tau, s2
        want["R2P"][0][b], want["R2P"][1][b] = tau, superpop_oracle(m, beta_m, s2)
    assert_same(got, want, y)


@PROPERTY
@given(tables())
def test_invariant_to_pair_order(table):
    d, m, signs, effects, gaps, rng = table
    perm = rng.permutation(len(effects))
    assert_same(
        kernel(d[perm], m[perm], signs[:, perm], effects[perm], gaps[perm]),
        kernel(d, m, signs, effects, gaps),
        responses(signs, effects, gaps),
    )


@PROPERTY
@given(tables())
def test_invariant_to_swapping_units_within_pairs(table):
    d, m, signs, effects, gaps, rng = table
    flip = np.where(rng.random(len(effects)) < 0.5, -1.0, 1.0)
    assert_same(
        kernel(d * flip[:, None], m, signs * flip, effects, gaps * flip),
        kernel(d, m, signs, effects, gaps),
        responses(signs, effects, gaps),
    )


@PROPERTY
@given(tables())
def test_negated_signs_fit_as_negated_gaps_and_as_twins(table):
    # Signs -v give the design of v and the response Delta - v*g, and
    # every sign product at -v is the one at v negated, so the fits at
    # -v are those at v with the gaps negated, bit for bit. A call that
    # fits each draw's twin -v as a second response gives the same bits:
    # draw j in column j and its twin in column 2B - 1 - j.
    d, m, signs, effects, gaps, _ = table
    b = len(signs)
    at_plus = kernel(d, m, signs, effects, gaps)
    at_minus = kernel(d, m, -signs, effects, gaps)
    negated_gaps = kernel(d, m, signs, effects, -gaps)
    stats = sign_stats(Whitened.of(d[None], m[None]), effects[None], gaps[None],
                       times_of(signs[None]), b, WANT, twins=True)
    for est in WANT:
        for plus, minus, negated, both in zip(at_plus[est], at_minus[est], negated_gaps[est],
                                              stats[est]):
            assert plus.tobytes() == both[0, :b].tobytes(), est
            assert minus.tobytes() == negated.tobytes() == both[0, ::-1][:b].tobytes(), est


@PROPERTY
@given(tables())
def test_invariant_to_rescaling_covariate_columns(table):
    d, m, signs, effects, gaps, rng = table
    base = kernel(d, m, signs, effects, gaps)
    kd, km = d.shape[1], m.shape[1]
    # A power of two per column changes no bit, out to 2^+-600.
    k = rng.integers(-600, 601, size=kd + km)
    binary = kernel(np.ldexp(d, k[:kd]), np.ldexp(m, k[kd:]), signs, effects, gaps)
    for est in WANT:
        for got, want in zip(binary[est], base[est]):
            assert np.array_equal(got, want, equal_nan=True)
    # Decimal units round each entry, so the fits agree to solver precision.
    k = rng.integers(-150, 151, size=kd + km)
    assert_same(
        kernel(d * 10.0 ** k[:kd], m * 10.0 ** k[kd:], signs, effects, gaps),
        base,
        responses(signs, effects, gaps),
        rtol=1e-9,
    )


# Effects on a grid of 2^-20, shifted by up to 1e6 times their spread
# on the same grid, stay below 2^53 steps, so every shifted effect is
# exact and any change in a variance is the kernel's own rounding. A
# kernel that formed y'y from uncentered effects would lose about 12 of
# S^2's 16 digits to the shift and fail.
GRID = 2.0**-20
SHIFT_TOL = 1e-12


@PROPERTY
@given(tables(), st.floats(-1e6, 1e6))
def test_constant_effect_shift_moves_estimates_only(table, spreads):
    d, m, signs, effects, gaps, _ = table
    effects = np.round(effects / GRID) * GRID
    shift = np.round(spreads * np.ptp(effects) / GRID) * GRID
    shifted = effects + shift
    assert np.array_equal(shifted - shift, effects)
    base = kernel(d, m, signs, effects, gaps)
    moved = kernel(d, m, signs, shifted, gaps)
    scale = np.abs(responses(signs, effects, gaps)).max()
    for est in WANT:
        tau_tol = SHIFT_TOL * (scale + abs(shift))
        assert moved[est][0] - shift == pytest.approx(base[est][0], rel=0.0, abs=tau_tol), est
        s2_tol = SHIFT_TOL * np.nanmax(base[est][1])
        assert moved[est][1] == pytest.approx(base[est][1], rel=0.0, abs=s2_tol, nan_ok=True), est


# Exact enumeration at n = 10 against the oracle's loop over codes: an
# estimate may differ by ENUM_TOL * max|Y| and a variance by
# ENUM_TOL * max|Y|^2, the oracle's own explicit inverses included (18
# such tables differed by at most 1.4e-14 and 4.9e-14 of those scales).
ENUM_N = 10
ENUM_TOL = 1e-11


@settings(max_examples=4, deadline=None, derandomize=True)
@given(
    st.sampled_from([(T.select([1, 2]), T.select([3])), (T.select([1, 2]), T.log()),
                     (T.select([4]), T.select([1, 2, 3]))]),
    st.integers(0, 2**32 - 1),
)
def test_enumeration_matches_oracle_on_every_code(transforms, seed):
    f, g = transforms
    rng = np.random.default_rng(seed)
    x = np.exp(0.5 * rng.standard_normal((ENUM_N, 2, 4)))
    levels = 3.0 * rng.standard_normal((ENUM_N, 2))
    effects = rng.standard_normal(ENUM_N) + 2.0
    sample = PotentialOutcomeSample(
        r_t=levels + effects[:, None] / 2.0, r_c=levels - effects[:, None] / 2.0, x=x
    )
    dist = enumerate_exact(sample, f, g)
    oracle = enumerate_oracle(sample.r_t, sample.r_c, *transformed_blocks(x, f, g))
    assert dist.estimators == WANT
    y_max = (np.abs(effects) + np.abs(levels[:, 0] - levels[:, 1])).max()
    for est in WANT:
        tau_o, s2_o = oracle[est]
        np.testing.assert_allclose(dist.tau_hat[est], tau_o, rtol=0, atol=ENUM_TOL * y_max)
        np.testing.assert_allclose(dist.s2[est], s2_o, rtol=0, atol=ENUM_TOL * y_max**2)


@PROPERTY
@given(
    st.sampled_from(["sate", "pate"]),
    st.sampled_from(TRANSFORMS[:3]),
    st.integers(20, 40),
    st.integers(0, 2**40),
)
def test_study_columns_invariant_to_pair_order_and_unit_swap(mode, transforms, n, seed):
    f, g = transforms
    cfg = StudyConfig(mode=mode, setting="nonparallel", n=n, samples=3, f=f, g=g, seed=seed,
                      randomizations=20 if mode == "sate" else 1)
    streams = _StudyStreams(cfg, range(3))
    _, r_t, r_c, x = stacked_tables(streams.normals(3), cfg.setting)
    signs = streams.signs(3)
    step = _sate_columns if mode == "sate" else _pate_columns

    def columns(r_t, r_c, x, signs):
        """The study columns of the three tables, as one slab and one kernel call."""
        return step(cfg, range(3), *_kernel_inputs(r_t, r_c, x, f, g), times_of(signs))

    base = columns(r_t, r_c, x, signs)

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    swap = rng.random(n) < 0.5
    flip = np.where(swap, -1.0, 1.0)

    def swapped(a):
        out = a.copy()
        out[:, swap] = a[:, swap][:, :, ::-1]
        return out

    permuted = columns(r_t[:, perm], r_c[:, perm], x[:, perm], signs[..., perm])
    unit_swapped = columns(swapped(r_t), swapped(r_c), swapped(x), signs * flip)
    for other in (permuted, unit_swapped):
        assert other.keys() == base.keys()
        for name, col in base.items():
            assert other[name] == pytest.approx(col, rel=1e-9, nan_ok=True), name


@PROPERTY
@given(
    st.sampled_from(["sate", "pate"]),
    st.sampled_from(TRANSFORMS[:3]),
    st.integers(20, 40),
    st.integers(0, 2**40),
    st.lists(st.integers(-9, 12), min_size=4, max_size=4),
)
def test_study_columns_invariant_to_covariate_units(mode, transforms, n, seed, powers):
    # Each covariate column in units 10^k times smaller, for k from -9 to
    # 12. Under these transforms that rescales the d and m columns (log
    # shifts m by a constant, which centering removes), so no intercept
    # or variance moves beyond the rounding of the rescaled entries.
    f, g = transforms
    cfg = StudyConfig(mode=mode, setting="nonparallel", n=n, samples=3, f=f, g=g, seed=seed,
                      randomizations=20 if mode == "sate" else 1)
    tables = engine.stacked_tables

    def rescaled(normals, setting):
        w, r_t, r_c, x = tables(normals, setting)
        return w, r_t, r_c, x * 10.0 ** np.array(powers)

    base = engine._study_block(cfg, range(3))
    with mock.patch.object(engine, "stacked_tables", rescaled):
        scaled = engine._study_block(cfg, range(3))
    assert scaled.keys() == base.keys()
    for name, col in base.items():
        assert scaled[name] == pytest.approx(col, rel=1e-9, nan_ok=True), name


@pytest.mark.parametrize("block", ["d", "m"])
def test_duplicated_column_makes_every_row_singular(block):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((16, 2, 4))
    x[..., 2] = x[..., 0]  # x3 duplicates x1, so both d and m repeat a column
    f, g = (T.select([1, 3]), T.select([2])) if block == "d" else (T.select([2]), T.select([1, 3]))
    d, m = transformed_blocks(x, f, g)
    signs = 2.0 * rng.integers(0, 2, size=(64, 16)) - 1.0
    effects, gaps = rng.standard_normal(16), rng.standard_normal(16)
    stats = kernel(d, m, signs, effects, gaps)
    singular = ("R1", "R2", "R2P") if block == "d" else ("R2", "R2P")
    for est in singular:
        assert np.isnan(stats[est][0]).all() and np.isnan(stats[est][1]).all()
    if block == "m":
        assert np.isfinite(stats["R1"][1]).all()
    assert np.isfinite(stats["C"][1]).all()

    sample = PotentialOutcomeSample(
        r_t=rng.standard_normal((16, 2)), r_c=rng.standard_normal((16, 2)), x=x
    )
    # A singular estimator refuses the run, even where another is finite.
    with pytest.raises(RankDeficient) as info:
        run_monte_carlo(sample, 200, f=f, g=g, estimators=WANT[1:], rng=substream(51, ROLE_ASSIGN))
    assert str(info.value) == (
        "draw 0: the regression design is rank deficient (singular under 200 of 200 draws)"
    )


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    scale=st.floats(1e-6, 1e6),
    shift=st.floats(-1e3, 1e3),
)
def test_observed_responses_give_the_level_effect_identity(seed, n, scale, shift):
    rng = np.random.default_rng(seed)
    r_t = scale * rng.standard_normal((n, 2)) + shift
    r_c = scale * rng.standard_normal((n, 2))
    v = 2.0 * rng.integers(0, 2, size=n) - 1.0
    x = rng.standard_normal((n, 2, 4))
    exp, y = reveal(PotentialOutcomeSample(r_t=r_t, r_c=r_c, x=x), v)
    np.testing.assert_array_equal(exp.z[:, 0], v > 0)
    np.testing.assert_array_equal(exp.z.sum(axis=-1), 1)
    np.testing.assert_array_equal(exp.y, np.where(exp.z == 1, r_t, r_c))
    first = v > 0
    treated = np.where(first, r_t[:, 0], r_t[:, 1])
    control = np.where(first, r_c[:, 1], r_c[:, 0])
    np.testing.assert_array_equal(y, treated - control)
    effects, gaps = effects_and_gaps(r_t, r_c)
    bound = 1e-12 * max(1.0, np.abs(exp.y).max())
    np.testing.assert_allclose(y, effects + v * gaps, rtol=0, atol=bound)
