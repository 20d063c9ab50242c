"""Randomization distributions: exact enumeration and Monte Carlo.

A science table fixes both potential outcomes for every unit, so the
only randomness left is the vector of pair signs. This module studies
estimators under that randomness three ways:

* :func:`enumerate_exact` walks all 2^n assignments (small n), giving
  exact means, variances and coverage - the ground truth the sampling
  routines are checked against.
* :func:`run_monte_carlo` samples B assignments for one table.
* :func:`run_study` repeats that over S fresh tables and aggregates
  either per-sample summaries (in-sample target) or one draw per table
  (population target, where the spread across tables matters).

All heavy paths share one batched kernel. :func:`_grams` assembles the
equilibrated normal equations of the regression design [1 | v*d | m]
for a grid of T tables by B sign vectors; one solve-and-variance stage,
:func:`_intercept_stats`, then gives the intercepts of R1 and R2 and
the superpopulation correction. The diagonal blocks d'd and m'm do not
depend on the signs, so they are formed once per table and only the
blocks involving v once per assignment. The grid takes three shapes:
one table by all 2^n codes (enumeration), one table by B draws (Monte
Carlo, and each table of a sate study), and blocks of up to 256 tables
by one draw each (pate studies). Estimates from this kernel agree with
the single-fit estimators to solver precision and are tested against
them; population-study rows the kernel cannot certify as well
conditioned go through the single-fit path instead.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .dgp import N_COVARIATES, SETTINGS, PotentialOutcomeSample, generate_sample
from .errors import (
    ConfigError,
    DimensionMismatch,
    LengthMismatch,
    NonFiniteTransform,
    RankDeficient,
    TooLarge,
    WrongEstimator,
)
from .estimators import (
    estimate_classical,
    estimate_r1,
    estimate_r2,
    normal_quantile,
    superpop_correct,
)
from .experiment_model import (
    RANK_RTOL,
    PairedExperiment,
    TransformSpec,
    block_widths,
    build_design,
    columns_centered,
    transformed_blocks,
)
from .ols_core import least_squares
from .rng import ROLE_ASSIGN, ROLE_SAMPLE, substream

ENUMERATION_CAP = 16
_CHUNK = 4096
# Tables per population-study block: large enough to amortize the
# per-call cost of the stacked kernel, small enough to keep its arrays
# around a megabyte. Rows do not depend on it.
_PATE_BLOCK = 256
# A population-study row comes from the kernel only when its
# equilibrated Gram has lambda_min / lambda_max above this bound.
_CERT_RTOL = 1e-8

ESTIMATOR_IDS = ("C", "R1", "R2", "R2P")


def randomize(
    n: int, rng: np.random.Generator, b: Optional[int] = None
) -> np.ndarray:
    """Draw independent fair pair signs, values +/-1.

    Shape (n,), or (b, n) for b assignments drawn row by row from the
    same stream.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return 2.0 * rng.integers(0, 2, size=n if b is None else (b, n)) - 1.0


def assignment_signs(codes: np.ndarray, n: int) -> np.ndarray:
    """Decode assignment codes into sign vectors, shape (B, n).

    Bit i of a code drives pair i (least significant bit first); a set
    bit means the first-listed unit is treated (sign +1).
    """
    codes = np.asarray(codes, dtype=np.int64).reshape(-1)
    bits = (codes[:, None] >> np.arange(n)) & 1
    return 2.0 * bits - 1.0


def reveal(
    sample: PotentialOutcomeSample, v: np.ndarray
) -> tuple[PairedExperiment, np.ndarray]:
    """Apply an assignment to a science table.

    Returns the observed experiment and the treated-minus-control
    differences Y. Internally cross-checks the observed-response
    construction against the level/effect identity
    Y_i = Delta_i + v_i (l_i1 - l_i2).
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (sample.n,):
        raise LengthMismatch(
            f"assignment has shape {v.shape}, table has {sample.n} pairs"
        )
    if not np.isin(v, (-1.0, 1.0)).all():
        raise ValueError("assignment entries must be +1 or -1")
    if sample.x is None:
        raise DimensionMismatch(
            "science table has no observed covariates; cannot build an experiment"
        )
    z, observed, y, agree = _observe(sample.r_t, sample.r_c, v)
    if not agree:
        raise AssertionError("observed-response and level/effect Y constructions disagree")

    exp = PairedExperiment(x=sample.x, z=z, y=observed)
    return exp, y


def _observe(
    r_t: np.ndarray, r_c: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Treatment flags, observed responses and Y for signs v.

    Works on one table (r_t, r_c of shape (n, 2), v of shape (n,)) or a
    stack of them (leading axes in front). The last result says, per
    table, whether Y agrees with the level/effect identity
    Y_i = Delta_i + v_i (l_i1 - l_i2) to 1e-12 of the response scale.
    """
    z = np.empty(r_t.shape, dtype=int)
    z[..., 0] = (v > 0).astype(int)
    z[..., 1] = 1 - z[..., 0]
    observed = np.where(z == 1, r_t, r_c)
    y = v * (observed[..., 0] - observed[..., 1])

    ell = (r_t + r_c) / 2.0
    tau = r_t - r_c
    check = (tau[..., 0] + tau[..., 1]) / 2.0 + v * (ell[..., 0] - ell[..., 1])
    scale = np.maximum(1.0, np.abs(observed).max(axis=(-2, -1), initial=0.0))
    agree = np.abs(y - check).max(axis=-1, initial=0.0) <= 1e-12 * scale
    return z, observed, y, agree


def _column_rms(a: np.ndarray) -> np.ndarray:
    """Root mean square of each column (the second-to-last axis runs over pairs)."""
    return np.sqrt((a**2).mean(axis=-2, keepdims=True))


def _equilibrate(a: np.ndarray) -> np.ndarray:
    """Rescale columns to unit RMS (zero columns left alone).

    Column scaling leaves the fitted intercept, its variance, and the
    quadratic form beta_m' (m'm) beta_m unchanged, so the kernel can
    work entirely in the scaled coordinates. A stack of tables is
    scaled table by table.
    """
    if a.shape[-1] == 0:
        return a
    s = _column_rms(a)
    return a / np.where(s > 0, s, 1.0)


def _solve_rows(g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched linear solve; singular members become NaN rows."""
    try:
        return np.linalg.solve(g, rhs)
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for b in range(g.shape[0]):
            try:
                out[b] = np.linalg.solve(g[b], rhs[b])
            except np.linalg.LinAlgError:
                pass
        return out


def _intercept_stats(
    gram: np.ndarray,
    rhs: np.ndarray,
    yty: np.ndarray,
    n: int,
    k1: int,
    want: tuple[str, ...],
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The solve-and-variance stage after :func:`_grams`.

    ``gram`` (B, K, K) is the equilibrated Gram of [1 | vd | m], with
    the vd block ending at column ``k1``; ``rhs`` (B, K, 2) holds X'y
    and the first unit vector; ``yty`` is y'y per row. Returns
    {id: (tau_hat, s2)} for the requested estimators: R1 solves the
    leading k1-by-k1 system, R2 the full one, and R2P adds
    beta_m' (m'm) beta_m / ((n-1) n) to the R2 variance. The classical
    variance is SSE/dof times the intercept entry of the inverse Gram.
    Rows whose normal equations are singular come back NaN.
    """
    k2 = gram.shape[-1]
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    if "R1" in want:
        sol = _solve_rows(
            np.ascontiguousarray(gram[:, :k1, :k1]),
            np.ascontiguousarray(rhs[:, :k1, :]),
        )
        beta = sol[..., 0]
        sse = np.maximum(yty - np.einsum("bk,bk->b", beta, rhs[:, :k1, 0]), 0.0)
        out["R1"] = (beta[:, 0], sse / (n - k1) * sol[:, 0, 1])
    if "R2" in want or "R2P" in want:
        sol = _solve_rows(gram, rhs)
        beta = sol[..., 0]
        sse = np.maximum(yty - np.einsum("bk,bk->b", beta, rhs[..., 0]), 0.0)
        s2 = sse / (n - k2) * sol[:, 0, 1]
        if "R2" in want:
            out["R2"] = (beta[:, 0], s2)
        if "R2P" in want:
            bm = beta[:, k1:]
            corr = np.einsum("bj,bjk,bk->b", bm, gram[:, k1:, k1:], bm) / ((n - 1) * n)
            out["R2P"] = (beta[:, 0], s2 + corr)
    return out


def _grams(
    d: np.ndarray, m: np.ndarray, signs: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equilibrated normal equations of [1 | v*d | m] for a grid of fits.

    ``d`` (T, n, K_D) and ``m`` (T, n, K_M) are the fixed design blocks
    of T tables; ``signs`` and ``y`` (T, B, n) hold B assignments per
    table. Returns the Grams (T, B, K, K), the right-hand sides
    (T, B, K, 2) holding X'y and the first unit vector, and y'y (T, B).
    The diagonal blocks d'd and m'm and the sums of m do not depend on
    the signs, so they are formed once per table; only the blocks that
    involve v are formed per assignment. Since v_i^2 = 1, v*d has the
    column scales of d, so equilibrating d and m equilibrates the design.
    """
    t, b, n = signs.shape
    kd, km = d.shape[-1], m.shape[-1]
    k1, k2 = 1 + kd, 1 + kd + km
    ds, ms = _equilibrate(d), _equilibrate(m)
    gram = np.empty((t, b, k2, k2))
    gram[..., 0, 0] = n
    sd = signs @ ds
    gram[..., 0, 1:k1] = sd
    gram[..., 1:k1, 0] = sd
    msum = ms.sum(axis=-2)[:, None, :]
    gram[..., 0, k1:] = msum
    gram[..., k1:, 0] = msum
    gram[..., 1:k1, 1:k1] = (ds.transpose(0, 2, 1) @ ds)[:, None]
    cross = (ds[..., :, None] * ms[..., None, :]).reshape(t, n, kd * km)
    vdm = (signs @ cross).reshape(t, b, kd, km)
    gram[..., 1:k1, k1:] = vdm
    gram[..., k1:, 1:k1] = vdm.swapaxes(-1, -2)
    gram[..., k1:, k1:] = (ms.transpose(0, 2, 1) @ ms)[:, None]

    rhs = np.zeros((t, b, k2, 2))
    rhs[..., 0, 0] = y.sum(axis=-1)
    rhs[..., 1:k1, 0] = (signs * y) @ ds
    rhs[..., k1:, 0] = y @ ms
    rhs[..., 0, 1] = 1.0
    yty = np.einsum("tbi,tbi->tb", y, y)
    return gram, rhs, yty


def _batch_regression(
    d: np.ndarray,
    m: np.ndarray,
    signs: np.ndarray,
    y: np.ndarray,
    want: Iterable[str],
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-assignment intercept estimates and variances for one table.

    ``signs`` and ``y`` have shape (B, n); ``d`` and ``m`` are the
    fixed design blocks. The assignments go through :func:`_grams` in
    chunks of ``_CHUNK``. Returns {id: (tau_hat, s2)} for the requested
    regression estimators (see :func:`_intercept_stats`).
    """
    want = tuple(want)
    n, k1 = d.shape[0], 1 + d.shape[1]
    out: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {est: [] for est in want}
    for lo in range(0, signs.shape[0], _CHUNK):
        gram, rhs, yty = _grams(
            d[None], m[None], signs[None, lo : lo + _CHUNK], y[None, lo : lo + _CHUNK]
        )
        for est, part in _intercept_stats(gram[0], rhs[0], yty[0], n, k1, want).items():
            out[est].append(part)

    return {
        est: (
            np.concatenate([t for t, _ in parts]),
            np.concatenate([s for _, s in parts]),
        )
        for est, parts in out.items()
    }


def _classical_stats(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tau_hat and S^2 of the plain mean, rowwise over (B, n)."""
    n = y.shape[1]
    tau = y.mean(axis=1)
    s2 = ((y - tau[:, None]) ** 2).sum(axis=1) / (n * (n - 1))
    return tau, s2


def _regression_blocks(
    sample: PotentialOutcomeSample,
    f: Optional[TransformSpec],
    g: Optional[TransformSpec],
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Fixed (d, m) blocks, or None when regression is not feasible.

    Regression estimators are skipped (not errored) when the table has
    too few pairs for the requested transforms, which keeps exact
    enumeration usable on outcome-only toy tables.
    """
    if f is None or g is None:
        return None
    if sample.x is None:
        raise DimensionMismatch(
            "science table has no observed covariates; drop the transforms "
            "or supply x columns"
        )
    if sample.n <= sum(block_widths(f, g, sample.x.shape[2])) + 1:
        return None
    return transformed_blocks(sample.x, f, g)


def _table_stats(
    sample: PotentialOutcomeSample,
    signs: np.ndarray,
    blocks: Optional[tuple[np.ndarray, np.ndarray]],
    want: Sequence[str],
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-assignment (tau_hat, s2) of the estimators ``want`` for one table.

    ``signs`` has shape (B, n). Y follows from the level/effect identity
    Y_i = Delta_i + v_i (l_i1 - l_i2); the regression estimators need the
    fixed (d, m) ``blocks`` and go through :func:`_batch_regression`.
    """
    ell = sample.levels
    y = sample.effects + signs * (ell[:, 0] - ell[:, 1])
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    if "C" in want:
        out["C"] = _classical_stats(y)
    reg_ids = [est for est in want if est != "C"]
    if reg_ids:
        d, m = blocks
        out.update(_batch_regression(d, m, signs, y, reg_ids))
    return {est: out[est] for est in want}


@dataclass(frozen=True)
class EstimatorSummary:
    """Summary of one estimator over a set of assignments."""

    mean: float
    variance: float
    rmse: float
    coverage: float
    mean_se: float
    mean_s2: float
    errors: int = 0


def _summarize(
    tau: np.ndarray, s2: np.ndarray, target: float, alpha: float
) -> EstimatorSummary:
    """Moments, RMSE and interval coverage against ``target``.

    Assignments with a non-finite estimate are counted in ``errors``
    and left out of every other number.
    """
    ok = np.isfinite(tau) & np.isfinite(s2)
    errors = int((~ok).sum())
    tau, s2 = tau[ok], s2[ok]
    if tau.size == 0:
        nan = float("nan")
        return EstimatorSummary(nan, nan, nan, nan, nan, nan, errors)
    mean = float(tau.mean())
    var = float(((tau - mean) ** 2).mean())
    rmse = float(np.sqrt(((tau - target) ** 2).mean()))
    se = np.sqrt(s2)
    half = normal_quantile(1.0 - alpha / 2.0) * se
    coverage = float((np.abs(tau - target) <= half).mean())
    return EstimatorSummary(
        mean=mean,
        variance=var,
        rmse=rmse,
        coverage=coverage,
        mean_se=float(se.mean()),
        mean_s2=float(s2.mean()),
        errors=errors,
    )


@dataclass(frozen=True)
class ExactDistribution:
    """Every estimator evaluated at every one of the 2^n assignments."""

    n: int
    target: float
    alpha: float
    tau_hat: Mapping[str, np.ndarray]
    s2: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        total = 2**self.n
        for est, arr in self.tau_hat.items():
            if arr.shape != (total,) or self.s2[est].shape != (total,):
                raise DimensionMismatch(
                    f"{est}: need {total} records, got {arr.shape}"
                )

    @property
    def estimators(self) -> tuple[str, ...]:
        return tuple(self.tau_hat)

    def per(self, est: str) -> EstimatorSummary:
        """Exact summary of one estimator over all assignments."""
        return _summarize(self.tau_hat[est], self.s2[est], self.target, self.alpha)

    def mean(self, est: str) -> float:
        return self.per(est).mean

    def variance(self, est: str) -> float:
        """Exact randomization variance of the point estimate."""
        return self.per(est).variance

    def mean_s2(self, est: str) -> float:
        """Exact expectation of the variance estimator."""
        return self.per(est).mean_s2

    def summary(self) -> dict:
        per = {est: self.per(est) for est in self.estimators}
        return {
            "n": self.n,
            "assignments": 2**self.n,
            "target": self.target,
            "alpha": self.alpha,
            "estimators": {
                est: {
                    "mean": p.mean,
                    "variance": p.variance,
                    "mean_s2": p.mean_s2,
                    "rmse": p.rmse,
                    "coverage": p.coverage,
                }
                for est, p in per.items()
            },
        }


def enumerate_exact(
    sample: PotentialOutcomeSample,
    f: Optional[TransformSpec] = None,
    g: Optional[TransformSpec] = None,
    alpha: float = 0.05,
    cap: int = ENUMERATION_CAP,
) -> ExactDistribution:
    """Evaluate the estimators under all 2^n assignments.

    The mean estimator is always included; the regression estimators
    need transforms, observed covariates, and n > K_D + K_M + 1, and
    the superpopulation-corrected variance additionally needs K_M >= 1.
    Raises TooLarge beyond the cap (default 16 pairs, 65536
    assignments).
    """
    n = sample.n
    if n > cap:
        raise TooLarge(f"2^{n} assignments exceed the cap of 2^{cap}")
    blocks = _regression_blocks(sample, f, g)
    want = ["C"]
    if blocks is not None:
        want += ["R1", "R2"] + (["R2P"] if blocks[1].shape[1] else [])
    stats = _table_stats(sample, assignment_signs(np.arange(2**n), n), blocks, want)
    if blocks is not None:
        bad = ~np.isfinite(stats[want[-1]][0])
        if bad.any():
            raise RankDeficient(
                f"{int(bad.sum())} of {2**n} assignments give a singular design "
                f"(first code {int(np.flatnonzero(bad)[0])})"
            )
    return ExactDistribution(
        n=n,
        target=sample.sate,
        alpha=alpha,
        tau_hat={est: tau for est, (tau, _) in stats.items()},
        s2={est: s2 for est, (_, s2) in stats.items()},
    )


@dataclass(frozen=True)
class RandomizationSummary:
    """Monte Carlo summaries for several estimators on one table."""

    b: int
    alpha: float
    target: float
    per: Mapping[str, EstimatorSummary]


def run_monte_carlo(
    sample: PotentialOutcomeSample,
    b: int,
    alpha: float = 0.05,
    f: Optional[TransformSpec] = None,
    g: Optional[TransformSpec] = None,
    estimators: Iterable[str] = ("C", "R1", "R2"),
    rng: Optional[np.random.Generator] = None,
) -> RandomizationSummary:
    """Estimate randomization behavior from B sampled assignments.

    Coverage and RMSE are measured against the table's own average
    effect, recorded as ``target``. Assignments whose design turns out
    singular are counted in ``errors`` and dropped from the summaries
    rather than aborting the run.
    """
    if b < 1:
        raise ConfigError(f"need b >= 1, got {b}")
    est_ids = tuple(estimators)
    for est in est_ids:
        if est not in ESTIMATOR_IDS:
            raise WrongEstimator(f"unknown estimator {est!r}")
    if rng is None:
        rng = np.random.default_rng()

    blocks = None
    if any(est != "C" for est in est_ids):
        blocks = _regression_blocks(sample, f, g)
        if blocks is None:
            raise ConfigError(
                "regression estimators need transforms and n > K_D + K_M + 1"
            )
        if "R2P" in est_ids and blocks[1].shape[1] == 0:
            raise WrongEstimator(
                "superpopulation-corrected variance needs at least one m column"
            )
    stats = _table_stats(sample, randomize(sample.n, rng, b), blocks, est_ids)
    per = {
        est: _summarize(tau, s2, sample.sate, alpha) for est, (tau, s2) in stats.items()
    }
    return RandomizationSummary(b=b, alpha=alpha, target=sample.sate, per=per)


@dataclass(frozen=True)
class StudyConfig:
    """Configuration for a multi-sample study.

    ``mode`` picks the target: "sate" runs ``randomizations``
    assignments per table against each table's own average effect;
    "pate" runs one assignment per table against the population value
    (zero under both built-in settings). In pate mode the
    randomizations count is forced to 1.
    """

    mode: str
    setting: str
    n: int
    samples: int
    randomizations: int = 1
    alpha: float = 0.05
    f: TransformSpec = field(default_factory=TransformSpec.identity)
    g: TransformSpec = field(default_factory=TransformSpec.identity)
    seed: int = 0
    workers: int = 1


def _validate_config(config: StudyConfig) -> StudyConfig:
    if config.mode not in ("sate", "pate"):
        raise ConfigError(f"mode must be 'sate' or 'pate', got {config.mode!r}")
    if config.setting not in SETTINGS:
        raise ConfigError(f"setting must be one of {SETTINGS}, got {config.setting!r}")
    if config.samples < 1:
        raise ConfigError(f"need samples >= 1, got {config.samples}")
    if config.randomizations < 1:
        raise ConfigError(f"need randomizations >= 1, got {config.randomizations}")
    if not 0 < config.alpha < 1:
        raise ConfigError(f"alpha must be in (0, 1), got {config.alpha}")
    if config.workers < 1:
        raise ConfigError(f"need workers >= 1, got {config.workers}")
    try:
        k = sum(block_widths(config.f, config.g, N_COVARIATES))
    except DimensionMismatch as exc:
        raise ConfigError(f"transform does not fit the generated covariates: {exc}") from None
    if config.n <= k + 1:
        raise ConfigError(
            f"n={config.n} too small for the transforms (need n > {k + 1})"
        )
    return config


_SATE_METRICS = (
    "coverage_C",
    "coverage_R1",
    "coverage_R2",
    "se_ratio_R1_C",
    "se_ratio_R2_C",
    "se_ratio_R2_R1",
    "rmse_ratio_R1_C",
    "rmse_ratio_R2_C",
)

_PATE_METRICS = (
    "coverage_C",
    "coverage_R1",
    "coverage_R2",
    "coverage_R2P",
    "se_sd_ratio_C",
    "se_sd_ratio_R1",
    "se_sd_ratio_R2",
    "se_sd_ratio_R2P",
    "sd_ratio_R2_R1",
    "sd_ratio_R1_C",
    "sd_ratio_R2_C",
)


def _sate_row(config: StudyConfig, idx: int) -> dict[str, float]:
    sample = generate_sample(
        config.n, config.setting, rng=substream(config.seed, ROLE_SAMPLE, idx)
    )
    mc = run_monte_carlo(
        sample,
        config.randomizations,
        alpha=config.alpha,
        f=config.f,
        g=config.g,
        estimators=("C", "R1", "R2"),
        rng=substream(config.seed, ROLE_ASSIGN, idx),
    )
    c, r1, r2 = mc.per["C"], mc.per["R1"], mc.per["R2"]
    return {
        "coverage_C": c.coverage,
        "coverage_R1": r1.coverage,
        "coverage_R2": r2.coverage,
        "se_ratio_R1_C": r1.mean_se / c.mean_se,
        "se_ratio_R2_C": r2.mean_se / c.mean_se,
        "se_ratio_R2_R1": r2.mean_se / r1.mean_se,
        "rmse_ratio_R1_C": r1.rmse / c.rmse,
        "rmse_ratio_R2_C": r2.rmse / c.rmse,
    }


def _pate_fit(
    sample: PotentialOutcomeSample, v: np.ndarray, f: TransformSpec, g: TransformSpec
) -> dict[str, float]:
    """One population-study row through the single-fit estimators."""
    exp, _ = reveal(sample, v)
    dm = build_design(exp, f, g)
    rep_c = estimate_classical(dm.y)
    rep_r1 = estimate_r1(dm)
    rep_r2 = estimate_r2(dm)
    rep_r2p = superpop_correct(rep_r2, dm)
    return {
        "tau_C": rep_c.tau_hat,
        "se_C": rep_c.se,
        "tau_R1": rep_r1.tau_hat,
        "se_R1": rep_r1.se,
        "tau_R2": rep_r2.tau_hat,
        "se_R2": rep_r2.se,
        "se_R2P": rep_r2p.se,
    }


def _pate_kernel(
    samples: list[PotentialOutcomeSample],
    signs: np.ndarray,
    f: TransformSpec,
    g: TransformSpec,
) -> dict[int, dict[str, float]]:
    """Kernel rows for the tables of a block it can certify, by position.

    Table j meets the signs ``signs[j]``. A table is certified when its
    Y passes the reveal cross-check, its m columns pass the
    :func:`columns_centered` test that :class:`DesignMatrices` applies,
    and the equilibrated Gram G of its design X = [1 | vd | m] has
    lambda_min / lambda_max > _CERT_RTOL.
    That bound keeps e'(I-H)e = 1/(G^-1)_00 >= lambda_min well above the
    DegenerateDenominator cutoff. With the column scales it also bounds
    every |R_kk| / |R_00| of the pivoted QR the single fit would run,
    since |R_kk| >= sigma_min(X) >= sqrt(lambda_min) * min scale and
    |R_00| = sqrt(n) * max scale; that bound must clear RANK_RTOL tenfold,
    a margin for rounding in the factorization. So the single-fit path
    returns a row for every certified table. Returns no rows when the
    block's transforms are not finite or the design has no m column
    (superpop_correct refuses it).
    """
    b, n = signs.shape
    try:
        d, m = transformed_blocks(np.stack([s.x for s in samples]), f, g)
    except NonFiniteTransform:
        return {}
    if m.shape[-1] == 0:
        return {}
    k1 = 1 + d.shape[-1]
    _, _, y, ok = _observe(
        np.stack([s.r_t for s in samples]), np.stack([s.r_c for s in samples]), signs
    )
    # Columns near the float range (exp of large covariates) overflow
    # here; their tables fail the certificate and the single fit reports
    # them, so the overflow is not worth a warning of its own.
    with np.errstate(over="ignore", invalid="ignore"):
        ok &= columns_centered(m)
        gram, rhs, yty = (a[:, 0] for a in _grams(d, m, signs[:, None], y[:, None]))
        scale = np.concatenate([np.ones((b, 1, 1)), _column_rms(d), _column_rms(m)], axis=-1)[:, 0]
        lam = np.linalg.eigvalsh(gram)
        rank_bound = (
            np.sqrt(np.maximum(lam[:, 0], 0.0) / n) * scale.min(axis=-1) / scale.max(axis=-1)
        )
        ok &= (lam[:, 0] > _CERT_RTOL * lam[:, -1]) & (rank_bound > 10.0 * RANK_RTOL)

    sel = np.flatnonzero(ok)
    stats = _intercept_stats(gram[sel], rhs[sel], yty[sel], n, k1, ("R1", "R2", "R2P"))
    tau_c, s2_c = _classical_stats(y[sel])
    cols = {
        "tau_C": tau_c,
        "se_C": np.sqrt(s2_c),
        "tau_R1": stats["R1"][0],
        "se_R1": np.sqrt(stats["R1"][1]),
        "tau_R2": stats["R2"][0],
        "se_R2": np.sqrt(stats["R2"][1]),
        "se_R2P": np.sqrt(stats["R2P"][1]),
    }
    return {
        int(j): {key: float(vals[i]) for key, vals in cols.items()}
        for i, j in enumerate(sel)
    }


def _pate_block(
    samples: list[PotentialOutcomeSample],
    signs: np.ndarray,
    f: TransformSpec,
    g: TransformSpec,
) -> list[dict[str, float]]:
    """Population-study rows for a block of tables, in order.

    Rows :func:`_pate_kernel` certifies come from the shared kernel;
    every other row goes through the single-fit path, in table order,
    so the first error raised is the one the single-fit path raises for
    the first table it fails on.
    """
    kernel = _pate_kernel(samples, signs, f, g)
    return [
        kernel[j] if j in kernel else _pate_fit(sample, signs[j], f, g)
        for j, sample in enumerate(samples)
    ]


def _pate_rows(config: StudyConfig, idxs: Sequence[int]) -> list[dict[str, float]]:
    """Population-study rows for sample indices ``idxs``.

    Index i draws its table from ``substream(seed, ROLE_SAMPLE, i)`` and
    its signs from ``substream(seed, ROLE_ASSIGN, i)``, so a row does
    not depend on the block it is computed in.
    """
    samples = [
        generate_sample(config.n, config.setting, rng=substream(config.seed, ROLE_SAMPLE, i))
        for i in idxs
    ]
    signs = np.array(
        [randomize(config.n, substream(config.seed, ROLE_ASSIGN, i)) for i in idxs]
    )
    return _pate_block(samples, signs, config.f, config.g)


def _study_block(args: tuple[StudyConfig, Sequence[int]]) -> list[dict[str, float]]:
    config, idxs = args
    if config.mode == "sate":
        return [_sate_row(config, idx) for idx in idxs]
    return _pate_rows(config, idxs)


@dataclass(frozen=True)
class StudyReport:
    """Aggregated study results.

    ``metrics`` maps metric names to {median, q025, q975} dicts in sate
    mode, or to plain floats in pate mode (those metrics are already
    cross-sample aggregates). The worker count is deliberately not
    recorded: results do not depend on it.
    """

    mode: str
    setting: str
    n: int
    samples: int
    randomizations: int
    alpha: float
    seed: int
    f: TransformSpec
    g: TransformSpec
    metrics: Mapping[str, object]

    def to_json_dict(self) -> dict:
        return {
            "config": {
                "mode": self.mode,
                "setting": self.setting,
                "n": self.n,
                "samples": self.samples,
                "randomizations": self.randomizations,
                "alpha": self.alpha,
                "seed": self.seed,
                "f": self.f.to_dict(),
                "g": self.g.to_dict(),
            },
            "metrics": {k: v for k, v in self.metrics.items()},
        }

    def to_csv(self) -> str:
        lines = []
        if self.mode == "sate":
            lines.append("metric,median,q2.5,q97.5")
            for name, cell in self.metrics.items():
                lines.append(
                    f"{name},{cell['median']!r},{cell['q025']!r},{cell['q975']!r}"
                )
        else:
            lines.append("metric,value")
            for name, value in self.metrics.items():
                lines.append(f"{name},{value!r}")
        return "\n".join(lines) + "\n"


def run_study(config: StudyConfig) -> StudyReport:
    """Run a full multi-sample study.

    Deterministic for a fixed seed regardless of the worker count:
    every sample index gets its own substreams and rows are aggregated
    in index order.
    """
    config = _validate_config(config)
    if config.mode == "pate":
        config = replace(config, randomizations=1)
    # Pate rows share the stacked kernel in fixed blocks; sate rows are
    # independent, so their blocks only size the process pool's tasks.
    if config.mode == "pate":
        size = _PATE_BLOCK
    else:
        size = max(1, config.samples // (config.workers * 8))
    tasks = [
        (config, range(lo, min(lo + size, config.samples)))
        for lo in range(0, config.samples, size)
    ]
    if config.workers == 1:
        blocks = map(_study_block, tasks)
    else:
        with concurrent.futures.ProcessPoolExecutor(config.workers) as pool:
            blocks = list(pool.map(_study_block, tasks))
    rows = [row for block in blocks for row in block]

    if config.mode == "sate":
        metrics: dict[str, object] = {}
        for name in _SATE_METRICS:
            vals = np.array([row[name] for row in rows])
            med, lo, hi = np.quantile(vals, [0.5, 0.025, 0.975])
            metrics[name] = {"median": float(med), "q025": float(lo), "q975": float(hi)}
    else:
        metrics = _aggregate_pate(rows, config.alpha)
    return StudyReport(
        mode=config.mode,
        setting=config.setting,
        n=config.n,
        samples=config.samples,
        randomizations=config.randomizations,
        alpha=config.alpha,
        seed=config.seed,
        f=config.f,
        g=config.g,
        metrics=metrics,
    )


def _aggregate_pate(rows: list[dict[str, float]], alpha: float) -> dict[str, object]:
    """Cross-sample aggregates against the population target of zero."""
    z = normal_quantile(1.0 - alpha / 2.0)
    tau = {e: np.array([r[f"tau_{e}"] for r in rows]) for e in ("C", "R1", "R2")}
    se = {e: np.array([r[f"se_{e}"] for r in rows]) for e in ("C", "R1", "R2", "R2P")}
    tau["R2P"] = tau["R2"]
    sd = {e: float(tau[e].std(ddof=1)) for e in ("C", "R1", "R2")}
    out: dict[str, object] = {}
    for e in ("C", "R1", "R2", "R2P"):
        out[f"coverage_{e}"] = float((np.abs(tau[e]) <= z * se[e]).mean())
    for e in ("C", "R1", "R2"):
        out[f"se_sd_ratio_{e}"] = float(se[e].mean()) / sd[e]
    out["se_sd_ratio_R2P"] = float(se["R2P"].mean()) / sd["R2"]
    out["sd_ratio_R2_R1"] = sd["R2"] / sd["R1"]
    out["sd_ratio_R1_C"] = sd["R1"] / sd["C"]
    out["sd_ratio_R2_C"] = sd["R2"] / sd["C"]
    return out


@dataclass(frozen=True)
class LemmaDiagnostics:
    """Projection diagnostics over repeated assignments of one table.

    ``off_block`` holds, per repetition, the largest magnitude among
    the entries of the cross block (signs*d)'m / n; ``ones_residual``
    holds |e'(I - H)e / n - 1| where H projects onto [signs*d | m].
    Both shrink at the square-root rate in n for well-behaved tables.
    The ones_residual convention follows the algebra (the normalized
    quantity tends to one, so its distance from one is reported).
    """

    n: int
    reps: int
    off_block: np.ndarray
    ones_residual: np.ndarray

    @property
    def median_off_block(self) -> float:
        return float(np.median(self.off_block))

    @property
    def median_ones_residual(self) -> float:
        return float(np.median(self.ones_residual))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "reps": self.reps,
            "median_off_block": self.median_off_block,
            "median_ones_residual": self.median_ones_residual,
            "off_block": [float(v) for v in self.off_block],
            "ones_residual": [float(v) for v in self.ones_residual],
        }


def lemma_diagnostics(
    sample: PotentialOutcomeSample,
    f: TransformSpec,
    g: TransformSpec,
    reps: int,
    rng: Optional[np.random.Generator] = None,
    signs: Optional[np.ndarray] = None,
) -> LemmaDiagnostics:
    """Measure how block-diagonal the normalized Gram matrix is.

    Draws ``reps`` assignments (or reuses fixed ``signs``) and records
    the off-block magnitude and the ones-projection residual for each.
    Raises RankDeficient when [1 | signs*d | m] is rank deficient, as
    when the ones vector lies in the span of [signs*d | m].
    """
    if reps < 1:
        raise ValueError(f"need reps >= 1, got {reps}")
    if sample.x is None:
        raise DimensionMismatch("science table has no observed covariates")
    if signs is None and rng is None:
        rng = np.random.default_rng()
    d, m = transformed_blocks(sample.x, f, g)
    n = sample.n
    ones = np.ones(n)
    off = np.empty(reps)
    resid = np.empty(reps)
    for r in range(reps):
        v = np.asarray(signs, dtype=float) if signs is not None else randomize(n, rng)
        if v.shape != (n,):
            raise LengthMismatch(f"signs have shape {v.shape}, need ({n},)")
        vd = v[:, None] * d
        off[r] = (
            np.abs(vd.T @ m).max() / n if d.shape[1] and m.shape[1] else 0.0
        )
        a = np.hstack([vd, m])
        if a.shape[1]:
            # e'(I - H)e = 1/||u||^2, u the intercept row of the fit on [1 | a].
            u = least_squares(a, ones).intercept_row
            resid[r] = abs(1.0 / float(u @ u) / n - 1.0)
        else:
            resid[r] = 0.0
    return LemmaDiagnostics(n=n, reps=reps, off_block=off, ones_residual=resid)
