"""Least squares with stable intercept-variance extraction.

Each fit factors its design exactly once, with a column-pivoted thin QR
X P = Q R. That one factorization gives the rank test (on the diagonal
of R), the coefficients, the fitted values, the leverages (row norms of
Q) and the intercept row u of (X'X)^{-1} X'. Both variance routines
only combine u with the residuals and leverages; no n-by-n hat matrix
is ever formed and no second factorization or regression is run. They
return the intercept entry of the usual classical and
heteroskedasticity-consistent covariance estimators, which is all the
pair-level estimators need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dtrtri

from .errors import DegenerateDenominator, LeverageOne, RankDeficient
from .experiment_model import RANK_RTOL

_HC_VARIANTS = ("HC2", "HC3")


@dataclass
class FitResult:
    """Outcome of an intercept fit, read off one pivoted thin QR.

    ``coefficients`` puts the intercept first, then one slope per
    column of x. ``design`` is the matrix actually factored, [1 | x].
    ``leverages`` is the diagonal of the hat matrix. ``intercept_row``
    is the intercept row u of (X'X)^{-1} X', so the intercept is
    ``intercept_row @ y`` and e'(I - H)e = 1/||u||^2, with H the
    projection onto the columns of x.
    """

    coefficients: np.ndarray
    residuals: np.ndarray
    fitted: np.ndarray
    sse: float
    dof: int
    design: np.ndarray
    leverages: np.ndarray
    intercept_row: np.ndarray

    @property
    def n(self) -> int:
        return self.design.shape[0]


def least_squares(x: np.ndarray, y: np.ndarray) -> FitResult:
    """Fit y on an intercept and x by one column-pivoted thin QR.

    ``x`` may have zero columns, in which case the fit is just the mean
    of y. Raises RankDeficient when the design [1 | x] is numerically
    rank deficient: some |R_kk| is at most RANK_RTOL times |R_00|.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if x.shape[0] != n:
        raise ValueError(f"design has {x.shape[0]} rows but y has {n}")
    design = np.column_stack([np.ones(n), x])
    cols = design.shape[1]
    if n < cols:
        raise RankDeficient(f"{cols} columns but only {n} rows")

    q, r, piv = scipy.linalg.qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int((diag > RANK_RTOL * diag[0]).sum())
    if rank < cols:
        raise RankDeficient(
            f"design rank {rank} < {cols} (tolerance {RANK_RTOL:g})"
        )
    r_inv, _ = dtrtri(r, lower=0)
    qty = q.T @ y
    coef = np.empty(cols)
    coef[piv] = r_inv @ qty
    fitted = q @ qty
    residuals = y - fitted
    return FitResult(
        coefficients=coef,
        residuals=residuals,
        fitted=fitted,
        sse=float(residuals @ residuals),
        dof=n - cols,
        design=design,
        leverages=np.einsum("ij,ij->i", q, q),
        intercept_row=q @ r_inv[int(np.flatnonzero(piv == 0)[0])],
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
    if denom <= 1e-10 * fit.n:
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
    if variant not in _HC_VARIANTS:
        raise ValueError(f"variant must be one of {_HC_VARIANTS}, got {variant!r}")
    h = fit.leverages
    if np.any(h >= 1.0 - 1e-12):
        worst = int(np.argmax(h))
        raise LeverageOne(f"leverage {h[worst]:.15f} at row {worst}")
    shrink = 1.0 - h if variant == "HC2" else (1.0 - h) ** 2
    w = fit.residuals**2 / shrink
    return float(fit.intercept_row**2 @ w)
