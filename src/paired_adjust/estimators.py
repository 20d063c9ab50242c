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

import numpy as np

from .errors import BadAlpha, TooFewPairs, WrongEstimator
from .experiment_model import DesignMatrices
from .ols_core import (
    FitResult,
    intercept_variance_classical,
    intercept_variance_hc,
    least_squares,
)

_FLAVORS = ("classical", "HC2", "HC3")
# The standard library's quantile (Wichura's AS 241) rather than
# scipy.special.ndtri: importing scipy.special costs about 70 ms and 4 MB
# in every process, including each worker of a study's process pool.
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
    the assignment variance of the mean in expectation.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n < 2:
        raise TooFewPairs(f"need at least 2 pairs, got {n}")
    tau = float(y.mean())
    s2 = float(((y - tau) ** 2).sum()) / (n * (n - 1))
    return EstimateReport(
        estimator="C", tau_hat=tau, s2=s2, flavor="classical", dof=n - 1, n=n
    )


def _variance(fit: FitResult, flavor: str) -> float:
    if flavor == "classical":
        return intercept_variance_classical(fit)
    return intercept_variance_hc(fit, flavor)


def _check_flavor(flavor: str) -> None:
    if flavor not in _FLAVORS:
        raise ValueError(f"variance flavor must be one of {_FLAVORS}, got {flavor!r}")


def estimate_r1(dm: DesignMatrices, flavor: str = "classical") -> EstimateReport:
    """Intercept of the regression of y on vd."""
    _check_flavor(flavor)
    fit = least_squares(dm.vd, dm.y)
    return EstimateReport(
        estimator="R1",
        tau_hat=float(fit.coefficients[0]),
        s2=_variance(fit, flavor),
        flavor=flavor,
        dof=fit.dof,
        n=dm.n,
        beta_d=tuple(float(b) for b in fit.coefficients[1:]),
    )


def estimate_r2(dm: DesignMatrices, flavor: str = "classical") -> EstimateReport:
    """Intercept of the regression of y on vd and m.

    With a zero-width m block this coincides with estimate_r1.
    """
    _check_flavor(flavor)
    fit = least_squares(np.hstack([dm.vd, dm.m]), dm.y)
    k_d = dm.k_d
    return EstimateReport(
        estimator="R2",
        tau_hat=float(fit.coefficients[0]),
        s2=_variance(fit, flavor),
        flavor=flavor,
        dof=fit.dof,
        n=dm.n,
        beta_d=tuple(float(b) for b in fit.coefficients[1 : 1 + k_d]),
        beta_m=tuple(float(b) for b in fit.coefficients[1 + k_d :]),
    )


def superpop_correct(r2: EstimateReport, dm: DesignMatrices) -> EstimateReport:
    """Widen an R2 variance so it covers the population-level effect.

    Adds beta_m' Sigma_m beta_m / n with Sigma_m = m'm/(n-1). The
    correction is a positive-semidefinite quadratic form, so the
    variance never shrinks. The point estimate is unchanged.
    """
    if r2.estimator != "R2":
        raise WrongEstimator(
            f"superpopulation correction applies to R2 reports, got {r2.estimator}"
        )
    if not r2.beta_m or dm.k_m == 0:
        raise WrongEstimator("superpopulation correction needs at least one m column")
    if len(r2.beta_m) != dm.k_m or r2.n != dm.n:
        raise WrongEstimator("report and design matrices do not match")
    beta_m = np.asarray(r2.beta_m)
    sigma_m = dm.m.T @ dm.m / (dm.n - 1)
    correction = float(beta_m @ sigma_m @ beta_m) / dm.n
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
    if not isinstance(alpha, (int, float)) or math.isnan(alpha) or not 0 < alpha <= 1:
        raise BadAlpha(f"alpha must be in (0, 1], got {alpha!r}")
    half = normal_quantile(1.0 - alpha / 2.0) * report.se
    return (report.tau_hat - half, report.tau_hat + half)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise BadAlpha(f"quantile level must be in (0, 1), got {p!r}")
    return _STANDARD_NORMAL.inv_cdf(p)
