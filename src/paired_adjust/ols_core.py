"""The package's one factorization and one rank rule, and single least-squares fits.

:func:`whiten` is the only factorization in the package: each column
is brought to a largest magnitude in [1/2, 1) by a power of two, then a
thin, unpivoted Householder QR factors the result (column equilibration
before QR, Golub & Van Loan ch. 5). Its pivot test, R_kk^2 >
RANK_RTOL * ||column k||^2, is the only rank rule. The randomization
kernel applies both to its fixed design blocks, :func:`least_squares`
to [x | 1] and ``experiment_model.DesignMatrices`` to [vd | m | 1],
once for both the design check and the R2 fit. With the ones column
last, its pivot R_kk^2 is e'(I - H)e with H the projection onto the
columns of x, so a fit passes only when e'(I - H)e > RANK_RTOL * n, the
intercept test of the kernel. Neither the factorization nor the test
depends on the scale of any column.

One factorization gives the coefficients, the fitted values, the
leverages (column norms of Q') and the intercept row u of
(X'X)^{-1} X'. Both variance routines only combine u with the residuals
and leverages; no n-by-n hat matrix is ever formed and no second
factorization or regression is run. They return the intercept entry of
the usual classical and heteroskedasticity-consistent covariance
estimators, which is all the pair-level estimators need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RESPONSE_LIMIT, DegenerateDenominator, LeverageOne, RankDeficient
from .errors import finite_array, float_array, one_of

# A column fails the pivot test when what is left of it, after the
# columns before it are projected out, has a squared norm of at most
# RANK_RTOL times its own. Both sides scale with the column, so the
# test is free of units.
RANK_RTOL = 1e-10

_HC_VARIANTS = ("HC2", "HC3")


def whiten(
    a: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal bases for the columns of each table of a (..., n, K) block.

    Each column is first brought to a largest magnitude in [1/2, 1) by
    a power of two 2^exp, which changes no bit of the basis and keeps
    the squares from overflowing or underflowing. A thin Householder QR
    per table then gives ``q`` (..., K, n), whose rows are orthonormal,
    and R upper triangular with q' R = a 2^-exp. Column k passes the
    pivot test when R_kk^2, the squared norm of what is left of column k
    after the earlier columns are projected out, exceeds RANK_RTOL times
    the squared norm of the column, which is that of column k of R.
    Rescaling a column rescales the matching column of R and nothing
    else, so ``q`` and the test do not depend on column scale. Returns
    ``q``, ``passed`` (..., K), ``ratios`` (..., K), the share R_kk^2
    over the squared norm of each column (zero for a zero column), R
    (..., K, K) and ``exp`` (..., 1, K). A failing table still gives
    finite coordinates. The column maxima, which do not round, come from
    a Fortran-ordered copy: contiguous along the pairs of one C-ordered
    table, along the tables of a stack with the table axis innermost.
    LAPACK factors a copy of each table, so no value depends on the order.
    """
    _, exp = np.frexp(np.abs(a, order="F").max(axis=-2, keepdims=True))
    q, r = np.linalg.qr(np.ldexp(a, -exp))
    r2 = r * r
    # A zero column has a zero diagonal entry too, so its ratio reads 0.
    norms = np.maximum(r2.sum(axis=-2), np.finfo(float).tiny)
    ratios = np.diagonal(r2, axis1=-2, axis2=-1) / norms
    return np.ascontiguousarray(q.swapaxes(-1, -2)), ratios > RANK_RTOL, ratios, r, exp


@dataclass
class FitResult:
    """Outcome of an intercept fit, read off one equilibrated thin QR.

    ``coefficients`` puts the intercept first, then one slope per
    column of x, so that y - [1 | x] @ coefficients is ``residuals``.
    ``leverages`` is the diagonal of the hat matrix. ``intercept_row``
    is the intercept row u of (X'X)^{-1} X', so the intercept is
    ``intercept_row @ y`` and e'(I - H)e = 1/||u||^2, with H the
    projection onto the columns of x.
    """

    coefficients: np.ndarray
    residuals: np.ndarray
    sse: float
    dof: int
    leverages: np.ndarray
    intercept_row: np.ndarray

    @property
    def n(self) -> int:
        return self.residuals.shape[0]


def least_squares(x: np.ndarray, y: np.ndarray) -> FitResult:
    """Fit y on an intercept and x through :func:`whiten`.

    ``x`` may have zero columns, in which case the fit is just the mean
    of y. The columns are factored as [x | 1], ones column last, so the
    pivot test on it is e'(I - H)e > RANK_RTOL * n. A 1-D x is one
    column. Raises what ``errors.finite_array`` raises for x (n, K) and y
    (n,), a response difference within 2^401, and RankDeficient, naming
    the first column that fails the pivot test, when any column does.
    """
    x = float_array(x, "x")
    x = finite_array(x[:, None] if x.ndim == 1 else x, "x", (None, None))
    n = x.shape[0]
    y = finite_array(y, "y", (n,), 2 * RESPONSE_LIMIT)
    cols = x.shape[1] + 1
    if n < cols:
        raise RankDeficient(f"{cols} columns but only {n} rows")
    return fit_whitened(whiten(np.column_stack([x, np.ones(n)])), y)


def fit_whitened(whitened: tuple, y: np.ndarray) -> FitResult:
    """The fit of :func:`least_squares`, read off :func:`whiten`'s output for [x | 1].

    These are the steps :func:`least_squares` takes once it has factored,
    so a caller that holds the factorization (``DesignMatrices.whitened``)
    fits without factoring again. ``y`` must be cast as
    :func:`least_squares` casts it, and [x | 1] have at least as many rows
    as columns. Raises RankDeficient as :func:`least_squares` does.
    """
    q, passed, _, r, exp = whitened
    cols, n = q.shape
    if not passed.all():
        k = int(np.argmin(passed))
        which = "the intercept" if k == cols - 1 else f"column {k + 1} of x"
        raise RankDeficient(
            f"design rank {int(passed.sum())} < {cols}: {which} is numerically "
            f"in the span of the columns before it (tolerance {RANK_RTOL:g})"
        )
    qty = q @ y
    # R is upper triangular with a nonzero diagonal, so LU takes no row
    # swaps and this solve is back substitution.
    slopes_then_intercept = np.ldexp(np.linalg.solve(r, qty), -exp[0])
    residuals = y - qty @ q
    return FitResult(
        coefficients=np.append(slopes_then_intercept[-1], slopes_then_intercept[:-1]),
        residuals=residuals,
        sse=float(residuals @ residuals),
        dof=n - cols,
        leverages=np.einsum("ki,ki->i", q, q),
        intercept_row=np.ldexp(q[-1] / r[-1, -1], -exp[0, -1]),
    )


def intercept_variance_classical(fit: FitResult) -> float:
    """Classical variance of the fitted intercept.

    Returns SSE/dof * ||u||^2 with u the intercept row of
    (X'X)^{-1} X', i.e. SSE/dof * [e'(I - H)e]^{-1} where H projects
    onto the non-intercept columns, since e'(I - H)e = 1/||u||^2. With
    no non-intercept columns this is just SSE/(dof * n).
    """
    if fit.dof < 1:
        raise DegenerateDenominator("no residual degrees of freedom")
    u2 = float(fit.intercept_row @ fit.intercept_row)
    denom = 1.0 / u2
    if denom <= RANK_RTOL * fit.n:
        raise DegenerateDenominator(
            f"ones vector is numerically inside the regressor span "
            f"(e'(I-H)e = {denom:.3e})"
        )
    return fit.sse / fit.dof * u2


def intercept_variance_hc(fit: FitResult, variant: str) -> float:
    """Heteroskedasticity-consistent variance of the fitted intercept.

    Implements the HC2 and HC3 sandwiches: the (1,1) entry of
    (X'X)^{-1} X' diag(w) X (X'X)^{-1} with w_i = e_i^2/(1-h_i) for HC2
    and e_i^2/(1-h_i)^2 for HC3. With u the intercept row of
    (X'X)^{-1} X', that entry is sum_i u_i^2 w_i.
    """
    variant = one_of(variant, _HC_VARIANTS, "variant")
    h = fit.leverages
    if np.any(h >= 1.0 - 1e-12):
        worst = int(np.argmax(h))
        raise LeverageOne(f"leverage {h[worst]:.15f} at row {worst}")
    shrink = 1.0 - h if variant == "HC2" else (1.0 - h) ** 2
    w = fit.residuals**2 / shrink
    return float(fit.intercept_row**2 @ w)
