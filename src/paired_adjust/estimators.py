"""Point estimators and confidence intervals for paired designs.

Three estimators of the average treatment effect over the n pairs:

* ``C``  - the plain mean of the treated-minus-control differences,
* ``R1`` - the intercept of a regression of those differences on the
  sign-flipped covariate differences (vd),
* ``R2`` - the intercept when the centered pair-average block (m) is
  added as well.

Each comes with a variance estimate; the classical flavors use the
textbook divisors n-1, n-K_D-1, n-K_D-K_M-1. The R2 variance targets
the in-sample effect; :func:`superpop_correct` adds the slope-times-
covariance term that makes it valid for the population effect when the
pairs are themselves draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .errors import DataError, DimensionMismatch, WrongEstimator, as_alpha, one_of
from .experiment_model import DesignMatrices, design_estimators
from .ols_core import (
    FitResult,
    intercept_variance_classical,
    intercept_variance_hc,
    least_squares,
)

FLAVORS = ("classical", "HC2", "HC3")
# The standard library's quantile (Wichura's AS 241) rather than
# scipy.special.ndtri: importing scipy.special costs about 70 ms and 4 MB
# in every process that imports the package.
_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class EstimateReport:
    """One estimator's output: point estimate, variance, slope blocks."""

    estimator: str  # "C", "R1" or "R2"
    tau_hat: float
    s2: float
    flavor: str
    dof: int
    n: int
    beta_d: tuple[float, ...] = ()
    beta_m: tuple[float, ...] = ()

    @property
    def se(self) -> float:
        return math.sqrt(self.s2)

    def to_report_dict(self, target: str, alpha: float) -> dict:
        """Render the JSON report entry used by the command line tools."""
        lo, hi = confidence_interval(self, alpha)
        return {
            "estimator": self.estimator,
            "target": target,
            "tau_hat": self.tau_hat,
            "s2": self.s2,
            "flavor": self.flavor,
            "dof": self.dof,
            "ci": [lo, hi],
            "alpha": alpha,
            "beta_D": list(self.beta_d),
            "beta_M": list(self.beta_m),
        }


def estimate_classical(y: np.ndarray) -> EstimateReport:
    """Mean of the pair differences with its classical variance.

    S^2 = sum (y_i - mean)^2 / (n (n-1)), which never underestimates
    the assignment variance of the mean in expectation. ``y`` holds one
    finite value per pair (DimensionMismatch, DataError).
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise DimensionMismatch(f"y must hold one value per pair, got shape {y.shape}")
    n = y.shape[0]
    design_estimators(n, None, None, None)
    if not np.isfinite(y).all():
        raise DataError("y holds a non-finite value")
    tau = float(y.mean())
    s2 = float(((y - tau) ** 2).sum()) / (n * (n - 1))
    return EstimateReport(
        estimator="C", tau_hat=tau, s2=s2, flavor="classical", dof=n - 1, n=n
    )


def _variance(fit: FitResult, flavor: str) -> float:
    if flavor == "classical":
        return intercept_variance_classical(fit)
    return intercept_variance_hc(fit, flavor)


def _intercept_reports(
    estimator: str, dm: DesignMatrices, x: np.ndarray, flavors: Sequence[str]
) -> tuple[EstimateReport, ...]:
    """One fit of y on [1 | x], reported under each variance flavor in turn."""
    flavors = [one_of(flavor, FLAVORS, "variance flavor") for flavor in flavors]
    fit = least_squares(x, dm.y)
    slopes = tuple(float(b) for b in fit.coefficients[1:])
    return tuple(
        EstimateReport(
            estimator=estimator, tau_hat=float(fit.coefficients[0]), s2=_variance(fit, flavor),
            flavor=flavor, dof=fit.dof, n=dm.n, beta_d=slopes[: dm.k_d], beta_m=slopes[dm.k_d :],
        )
        for flavor in flavors
    )


def estimate_r1(dm: DesignMatrices, flavor: str = "classical") -> EstimateReport:
    """Intercept of the regression of y on vd."""
    return _intercept_reports("R1", dm, dm.vd, (flavor,))[0]


def estimate_r2(dm: DesignMatrices, flavor: str = "classical") -> EstimateReport:
    """Intercept of the regression of y on vd and m.

    With a zero-width m block this coincides with estimate_r1.
    """
    return estimate_r2_flavors(dm, (flavor,))[0]


def estimate_r2_flavors(dm: DesignMatrices, flavors: Sequence[str]) -> tuple[EstimateReport, ...]:
    """:func:`estimate_r2` under each variance flavor, all read off one fit."""
    return _intercept_reports("R2", dm, np.hstack([dm.vd, dm.m]), flavors)


def superpop_correct(r2: EstimateReport, dm: DesignMatrices) -> EstimateReport:
    """Widen an R2 variance so it covers the population-level effect.

    Adds beta_m' Sigma_m beta_m / n with Sigma_m = m'm/(n-1), computed
    as ||m beta_m||^2 / ((n-1) n), the squared norm of the fitted m part,
    so no entry of m is squared and covariates near the float range do
    not overflow. The correction is a sum of squares, so the variance
    never shrinks. The point estimate is unchanged.
    """
    if r2.estimator != "R2":
        raise WrongEstimator(
            f"superpopulation correction applies to R2 reports, got {r2.estimator}"
        )
    if not r2.beta_m or dm.k_m == 0:
        raise WrongEstimator("superpopulation correction needs at least one m column")
    if len(r2.beta_m) != dm.k_m or r2.n != dm.n:
        raise WrongEstimator("report and design matrices do not match")
    fitted_m = dm.m @ np.asarray(r2.beta_m)
    correction = float(fitted_m @ fitted_m) / ((dm.n - 1) * dm.n)
    return EstimateReport(
        estimator="R2",
        tau_hat=r2.tau_hat,
        s2=r2.s2 + correction,
        flavor="superpop-corrected",
        dof=r2.dof,
        n=r2.n,
        beta_d=r2.beta_d,
        beta_m=r2.beta_m,
    )


def confidence_interval(report: EstimateReport, alpha: float) -> tuple[float, float]:
    """Symmetric normal-quantile interval around the point estimate.

    alpha is the two-sided miscoverage level in (0, 1]; alpha = 1 gives
    the degenerate interval at the point estimate, as does a zero
    variance.
    """
    alpha = as_alpha(alpha, "alpha", upto_one=True)
    half = normal_quantile(1.0 - alpha / 2.0) * report.se
    return (report.tau_hat - half, report.tau_hat + half)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for p in (0, 1) (BadAlpha elsewhere)."""
    return _STANDARD_NORMAL.inv_cdf(as_alpha(p, "quantile level", two_sided=False))
