"""Each pivot floor of the kernel, tested from both sides.

A fit is singular when a pivot falls to RANK_RTOL times its column's
squared norm before partialling out: N for the ones vector, whose pivot
is the intercept denominator e'(I-H)e of R1 and of R2, and one for a
whitened v*d column in R2's Schur elimination. Each design below puts
one pivot, under its signs v0, at half and at twice its floor; through
the kernel's entry at B = 1 the fit must then be NaN and finite.
"""

import numpy as np
import pytest

from paired_adjust.kernel import Whitened, intercept_denominators, sign_stats, times_of
from paired_adjust.ols_core import RANK_RTOL

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
    denom = intercept_denominators(d, m, v0[None])
    assert denom.shape == (1,)
    _check(denom, finite)
    if finite:
        assert denom[0] == pytest.approx(scale * RANK_RTOL * N, rel=1e-4)


@pytest.mark.parametrize("scale,finite", SCALES)
def test_r2_schur_pivot_floor(scale, finite):
    d, m, v0 = _schur_design(scale)
    assert _residual_share(v0 * d[:, 0], m) == pytest.approx(scale * RANK_RTOL, rel=1e-6)
    _check(_fit(d, m, v0, "R2"), finite)
    # The same v*d column, alone with the ones vector, leaves R1 well posed.
    _check(_fit(d, m[:, :0], v0, "R1"), True)
