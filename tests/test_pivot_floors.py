"""Each pivot floor of the kernel, tested from both sides.

A fit is singular when a pivot falls to RANK_RTOL times its column's
squared norm before partialling out: N for the ones vector, whose pivot
is the intercept denominator e'(I-H)e of R1 and of R2, and one for a
whitened m column in R2's elimination, which takes v*d, then m, then
the ones vector, the order ``ols_core.least_squares`` factors
[v*d | m | 1] in. Each design below puts one pivot, under its signs v0,
below and at twice its floor; through the kernel's entry at B = 1 the
fit must then be NaN and finite.
"""

import numpy as np
import pytest

from paired_adjust import PotentialOutcomeSample, TransformSpec, lemma_diagnostics
from paired_adjust.kernel import Whitened, sign_stats, times_of
from paired_adjust.errors import RankDeficient
from paired_adjust.ols_core import RANK_RTOL, least_squares, whiten

N = 40
SCALES = [(0.5, False), (2.0, True)]


def _centered_orthonormal(rng, k):
    """k orthonormal columns, each orthogonal to the ones vector, as an (N, k) array."""
    q, _ = np.linalg.qr(np.column_stack([np.ones(N), rng.standard_normal((N, k))]))
    return q[:, 1:]


def _signs(rng):
    return 2.0 * rng.integers(0, 2, N) - 1.0


def _eps(share):
    """The eps at which eps^2 / (1 + eps^2) is ``share``."""
    return np.sqrt(share / (1.0 - share))


def _residual_share(col, basis):
    """The squared norm of what is left of ``col`` outside ``basis``, over its own."""
    coef, *_ = np.linalg.lstsq(basis, col, rcond=None)
    left = col - basis @ coef
    return (left @ left) / (col @ col)


def _intercept_design(scale, km):
    """(d, m, v0): e'(I-H)e of [1 | v0*d | m] at ``scale`` times its floor RANK_RTOL * N.

    v0*d is 1 + eps*u with u orthogonal to the ones vector and to m,
    which is centered, so e'(I-H)e = N eps^2 / (N + eps^2).
    """
    rng = np.random.default_rng(11)
    cols = _centered_orthonormal(rng, 1 + km)
    v0 = _signs(rng)
    eps = _eps(scale * RANK_RTOL) * np.sqrt(N)
    return (v0 * (1.0 + eps * cols[:, 0]))[:, None], cols[:, 1:], v0


def _schur_design(scale):
    """(d, m, v0): v0*d has ``scale`` times RANK_RTOL of its squared norm outside m.

    v0*d is a + eps*r, a a column of m and r orthogonal to m; both are
    orthogonal to the ones vector, so the intercept is far from its floor.
    The two are unit columns, so a has the same share outside v0*d.
    """
    rng = np.random.default_rng(12)
    cols = _centered_orthonormal(rng, 3)
    v0 = _signs(rng)
    eps = _eps(scale * RANK_RTOL)
    return (v0 * (cols[:, 0] + eps * cols[:, 2]))[:, None], cols[:, :2], v0


def _fit(d, m, v0, est):
    """(tau_hat, s2) of ``est`` for one table under the one assignment v0."""
    rng = np.random.default_rng(13)
    effects, gaps = rng.standard_normal((2, 1, N))
    stats = sign_stats(Whitened.of(d[None], m[None]), effects, gaps, times_of(v0[None, None]), 1,
                       (est,))
    tau, s2 = stats[est]
    return tau[0, 0], s2[0, 0]


def _check(fit, finite):
    assert np.isfinite(fit).all() if finite else np.isnan(fit).all(), fit


@pytest.mark.parametrize("scale,finite", SCALES)
def test_r1_intercept_floor(scale, finite):
    d, m, v0 = _intercept_design(scale, 0)
    share = _residual_share(np.ones(N), v0[:, None] * d)
    assert N * share == pytest.approx(scale * RANK_RTOL * N, rel=1e-6)
    _check(_fit(d, m, v0, "R1"), finite)


@pytest.mark.parametrize("scale,finite", SCALES)
@pytest.mark.parametrize("est", ["R2", "R2P"])
def test_r2_intercept_floor(scale, finite, est):
    d, m, v0 = _intercept_design(scale, 2)
    share = _residual_share(np.ones(N), np.column_stack([v0[:, None] * d, m]))
    assert N * share == pytest.approx(scale * RANK_RTOL * N, rel=1e-6)
    _check(_fit(d, m, v0, est), finite)
    # whiten's pivot share of the ones column last in [v0*d | m | 1] is e'(I-H)e / N.
    _, passed, ratios, _, _ = whiten(np.column_stack([v0[:, None] * d, m, np.ones(N)]))
    assert passed.tolist() == [True, True, True, finite]
    assert ratios[-1] == pytest.approx(scale * RANK_RTOL, rel=1e-4)
    # lemma_diagnostics refuses the design below the floor and reads the share above it:
    # unit 1 minus unit 2 of x1 is d, and both units of x2 and x3 hold m.
    x = np.zeros((N, 2, 4))
    x[:, 0, 0], x[:, 1, 0] = d[:, 0] / 2.0, -d[:, 0] / 2.0
    x[:, :, 1:3] = m[:, None, :]
    sample = PotentialOutcomeSample(r_t=np.zeros((N, 2)), r_c=np.zeros((N, 2)), x=x)
    f, g = TransformSpec.select([1]), TransformSpec.select([2, 3])
    if finite:
        diag = lemma_diagnostics(sample, f, g, reps=1, signs=v0)
        assert 1.0 - diag.ones_residual[0] == pytest.approx(scale * RANK_RTOL, rel=1e-4)
    else:
        with pytest.raises(RankDeficient, match="repetition 0"):
            lemma_diagnostics(sample, f, g, reps=1, signs=v0)


@pytest.mark.parametrize("scale,finite", SCALES)
def test_r2_schur_pivot_floor(scale, finite):
    d, m, v0 = _schur_design(scale)
    assert _residual_share(v0 * d[:, 0], m) == pytest.approx(scale * RANK_RTOL, rel=1e-6)
    assert _residual_share(m[:, 0], v0[:, None] * d) == pytest.approx(scale * RANK_RTOL, rel=1e-6)
    _check(_fit(d, m, v0, "R2"), finite)
    # The same v*d column, alone with the ones vector, leaves R1 well posed.
    _check(_fit(d, m[:, :0], v0, "R1"), True)


@pytest.mark.parametrize("scale,finite", [(0.75, False), (2.0, True)])
@pytest.mark.parametrize("est", ["R2", "R2P"])
def test_m_pivot_floor_after_two_vd_columns(scale, finite, est):
    # m = (a + b) / sqrt(2) + eps*r for orthonormal v0*d = [a, b]: m keeps
    # ``scale`` times RANK_RTOL of its squared norm outside v0*d, while
    # either v*d column keeps about half of its own outside m, and the
    # last one 2 * scale * RANK_RTOL outside m and the other. So the fit
    # is singular below the floor only in the order v*d, then m.
    rng = np.random.default_rng(15)
    a, b, r = _centered_orthonormal(rng, 3).T
    v0 = _signs(rng)
    m = ((a + b) / np.sqrt(2.0) + _eps(scale * RANK_RTOL) * r)[:, None]
    d = v0[:, None] * np.column_stack([a, b])
    assert _residual_share(m[:, 0], v0[:, None] * d) == pytest.approx(scale * RANK_RTOL, rel=1e-6)
    _check(_fit(d, m, v0, est), finite)
    y = rng.standard_normal(N)
    if finite:
        least_squares(np.column_stack([v0[:, None] * d, m]), y)
    else:
        with pytest.raises(RankDeficient, match="column 3 of x"):
            least_squares(np.column_stack([v0[:, None] * d, m]), y)


@pytest.mark.filterwarnings("error")
def test_exactly_zero_pivots_give_nan_without_a_warning():
    # A constant d and m = (1, -1, 1, -1) whiten to +-1/2 exactly, so
    # under v = +-(1, -1, 1, -1) the v*d column is the m basis and its
    # Schur pivot is exactly 0, and under v = +-1 the R1 denominator is.
    # A failed pivot gets zero multipliers, not a division by zero.
    n = 4
    codes = np.arange(2**n)
    signs = 1.0 - 2.0 * ((codes[:, None] >> np.arange(n)) & 1)
    d, m = np.ones((1, n, 1)), np.array([1.0, -1.0, 1.0, -1.0])[None, :, None]
    rng = np.random.default_rng(14)
    effects, gaps = rng.standard_normal((2, 1, n))
    stats = sign_stats(Whitened.of(d, m), effects, gaps, times_of(signs[None]), 2**n,
                       ("R1", "R2", "R2P"))
    alternating = (signs == signs[:, :1] * np.array([1.0, -1.0, 1.0, -1.0])).all(axis=1)
    constant = (signs == signs[:, :1]).all(axis=1)
    assert np.isnan(stats["R1"][1][0]).tolist() == constant.tolist()
    for est in ("R2", "R2P"):
        assert np.isnan(stats[est][1][0][alternating | constant]).all()
