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

All heavy paths share one batched kernel that assembles the normal
equations blockwise. For an assignment with signs s, the regression
design is [1 | s*d | m]; its Gram matrix has constant diagonal blocks
(d'd and m'm do not depend on s), so only the thin cross blocks need a
matrix product per batch. Estimates from this kernel agree with the
single-fit estimators to solver precision and are tested against them.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

import numpy as np

from .dgp import N_COVARIATES, SETTINGS, PotentialOutcomeSample, generate_sample
from .errors import (
    ConfigError,
    DimensionMismatch,
    LengthMismatch,
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
    DesignMatrices,
    PairedExperiment,
    TransformSpec,
    block_widths,
    build_design,
    transformed_blocks,
)
from .ols_core import least_squares
from .rng import ROLE_ASSIGN, ROLE_SAMPLE, substream

ENUMERATION_CAP = 16
_CHUNK = 4096

ESTIMATOR_IDS = ("C", "R1", "R2", "R2P")


def randomize(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw independent fair pair signs, shape (n,), values +/-1."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return 2.0 * rng.integers(0, 2, size=n) - 1.0


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
    z = np.empty((sample.n, 2), dtype=int)
    z[:, 0] = (v > 0).astype(int)
    z[:, 1] = 1 - z[:, 0]
    observed = np.where(z == 1, sample.r_t, sample.r_c)
    y = v * (observed[:, 0] - observed[:, 1])

    ell = sample.levels
    check = sample.effects + v * (ell[:, 0] - ell[:, 1])
    scale = max(1.0, float(np.abs(observed).max(initial=0.0)))
    if np.abs(y - check).max(initial=0.0) > 1e-12 * scale:
        raise AssertionError("observed-response and level/effect Y constructions disagree")

    exp = PairedExperiment(x=sample.x, z=z, y=observed)
    return exp, y


def _equilibrate(a: np.ndarray) -> np.ndarray:
    """Rescale columns to unit RMS (zero columns left alone).

    Column scaling leaves the fitted intercept, its variance, and the
    quadratic form beta_m' (m'm) beta_m unchanged, so the kernel can
    work entirely in the scaled coordinates.
    """
    if a.shape[1] == 0:
        return a
    s = np.sqrt((a**2).mean(axis=0))
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


def _batch_regression(
    d: np.ndarray,
    m: np.ndarray,
    signs: np.ndarray,
    y: np.ndarray,
    want: Iterable[str],
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-assignment intercept estimates and variances.

    ``signs`` and ``y`` have shape (B, n); ``d`` and ``m`` are the
    fixed design blocks. Returns {id: (tau_hat, s2)} for the requested
    regression estimators. Rows whose normal equations are singular
    come back NaN.
    """
    want = tuple(want)
    n = d.shape[0]
    kd, km = d.shape[1], m.shape[1]
    k1, k2 = 1 + kd, 1 + kd + km
    ds = _equilibrate(d)
    ms = _equilibrate(m)
    dtd = ds.T @ ds
    mtm = ms.T @ ms
    msum = ms.sum(axis=0)
    cross = (
        (ds[:, :, None] * ms[:, None, :]).reshape(n, kd * km)
        if kd and km
        else None
    )

    out: dict[str, list[np.ndarray]] = {est: [] for est in want}
    for lo in range(0, signs.shape[0], _CHUNK):
        s_blk = signs[lo : lo + _CHUNK]
        y_blk = y[lo : lo + _CHUNK]
        b = s_blk.shape[0]

        gram = np.empty((b, k2, k2))
        gram[:, 0, 0] = n
        sd = s_blk @ ds
        gram[:, 0, 1:k1] = sd
        gram[:, 1:k1, 0] = sd
        gram[:, 0, k1:] = msum
        gram[:, k1:, 0] = msum
        gram[:, 1:k1, 1:k1] = dtd
        if cross is not None:
            vdm = (s_blk @ cross).reshape(b, kd, km)
            gram[:, 1:k1, k1:] = vdm
            gram[:, k1:, 1:k1] = vdm.transpose(0, 2, 1)
        gram[:, k1:, k1:] = mtm

        rhs = np.zeros((b, k2, 2))
        rhs[:, 0, 0] = y_blk.sum(axis=1)
        rhs[:, 1:k1, 0] = (s_blk * y_blk) @ ds
        rhs[:, k1:, 0] = y_blk @ ms
        rhs[:, 0, 1] = 1.0
        yty = np.einsum("bi,bi->b", y_blk, y_blk)

        if "R1" in want:
            sol = _solve_rows(
                np.ascontiguousarray(gram[:, :k1, :k1]),
                np.ascontiguousarray(rhs[:, :k1, :]),
            )
            beta = sol[..., 0]
            sse = np.maximum(
                yty - np.einsum("bk,bk->b", beta, rhs[:, :k1, 0]), 0.0
            )
            out["R1"].append((beta[:, 0], sse / (n - k1) * sol[:, 0, 1]))
        if "R2" in want or "R2P" in want:
            sol = _solve_rows(gram, rhs)
            beta = sol[..., 0]
            sse = np.maximum(yty - np.einsum("bk,bk->b", beta, rhs[..., 0]), 0.0)
            s2 = sse / (n - k2) * sol[:, 0, 1]
            if "R2" in want:
                out["R2"].append((beta[:, 0], s2))
            if "R2P" in want:
                bm = beta[:, k1:]
                corr = np.einsum("bj,jk,bk->b", bm, mtm, bm) / ((n - 1) * n)
                out["R2P"].append((beta[:, 0], s2 + corr))

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

    def mean(self, est: str) -> float:
        return float(self.tau_hat[est].mean())

    def variance(self, est: str) -> float:
        """Exact randomization variance of the point estimate."""
        t = self.tau_hat[est]
        return float(((t - t.mean()) ** 2).mean())

    def mean_s2(self, est: str) -> float:
        """Exact expectation of the variance estimator."""
        return float(self.s2[est].mean())

    def rmse(self, est: str) -> float:
        return float(np.sqrt(((self.tau_hat[est] - self.target) ** 2).mean()))

    def coverage(self, est: str) -> float:
        """Exact probability the closed interval covers the target."""
        half = normal_quantile(1.0 - self.alpha / 2.0) * np.sqrt(self.s2[est])
        return float(
            (np.abs(self.tau_hat[est] - self.target) <= half).mean()
        )

    def summary(self) -> dict:
        return {
            "n": self.n,
            "assignments": 2**self.n,
            "target": self.target,
            "alpha": self.alpha,
            "estimators": {
                est: {
                    "mean": self.mean(est),
                    "variance": self.variance(est),
                    "mean_s2": self.mean_s2(est),
                    "rmse": self.rmse(est),
                    "coverage": self.coverage(est),
                }
                for est in self.estimators
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
    signs = assignment_signs(np.arange(2**n), n)
    ell = sample.levels
    y = sample.effects + signs * (ell[:, 0] - ell[:, 1])

    tau: dict[str, np.ndarray] = {}
    s2: dict[str, np.ndarray] = {}
    tau["C"], s2["C"] = _classical_stats(y)
    blocks = _regression_blocks(sample, f, g)
    if blocks is not None:
        d, m = blocks
        want = ["R1", "R2"] + (["R2P"] if m.shape[1] else [])
        stats = _batch_regression(d, m, signs, y, want)
        for est in want:
            tau[est], s2[est] = stats[est]
        bad = ~np.isfinite(stats[want[-1]][0])
        if bad.any():
            raise RankDeficient(
                f"{int(bad.sum())} of {2**n} assignments give a singular design "
                f"(first code {int(np.flatnonzero(bad)[0])})"
            )
    return ExactDistribution(n=n, target=sample.sate, alpha=alpha, tau_hat=tau, s2=s2)


@dataclass(frozen=True)
class EstimatorSummary:
    """Monte Carlo summary of one estimator over B assignments."""

    mean: float
    variance: float
    rmse: float
    coverage: float
    mean_se: float
    mean_s2: float
    errors: int = 0


@dataclass(frozen=True)
class RandomizationSummary:
    """Monte Carlo summaries for several estimators on one table."""

    b: int
    alpha: float
    target: float
    target_kind: str
    per: Mapping[str, EstimatorSummary]


def _summarize(
    tau: np.ndarray, s2: np.ndarray, target: float, alpha: float
) -> EstimatorSummary:
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


def run_monte_carlo(
    sample: PotentialOutcomeSample,
    b: int,
    alpha: float = 0.05,
    f: Optional[TransformSpec] = None,
    g: Optional[TransformSpec] = None,
    estimators: Iterable[str] = ("C", "R1", "R2"),
    rng: Optional[np.random.Generator] = None,
    target: Optional[float] = None,
    target_kind: str = "sate",
) -> RandomizationSummary:
    """Estimate randomization behavior from B sampled assignments.

    Coverage and RMSE are measured against ``target`` (the table's own
    average effect by default). Assignments whose design turns out
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
    if target is None:
        target = sample.sate

    n = sample.n
    signs = 2.0 * rng.integers(0, 2, size=(b, n)) - 1.0
    ell = sample.levels
    y = sample.effects + signs * (ell[:, 0] - ell[:, 1])

    per: dict[str, EstimatorSummary] = {}
    if "C" in est_ids:
        tau_c, s2_c = _classical_stats(y)
        per["C"] = _summarize(tau_c, s2_c, target, alpha)
    reg_ids = [e for e in est_ids if e != "C"]
    if reg_ids:
        blocks = _regression_blocks(sample, f, g)
        if blocks is None:
            raise ConfigError(
                "regression estimators need transforms and n > K_D + K_M + 1"
            )
        d, m = blocks
        if "R2P" in reg_ids and m.shape[1] == 0:
            raise WrongEstimator(
                "superpopulation-corrected variance needs at least one m column"
            )
        stats = _batch_regression(d, m, signs, y, reg_ids)
        for est in reg_ids:
            tau, s2 = stats[est]
            per[est] = _summarize(tau, s2, target, alpha)
    ordered = {est: per[est] for est in est_ids}
    return RandomizationSummary(
        b=b, alpha=alpha, target=target, target_kind=target_kind, per=ordered
    )


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
        k = config.f.output_dim(N_COVARIATES) + config.g.output_dim(N_COVARIATES)
    except ValueError as exc:
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
        target=sample.sate,
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


def _pate_row(config: StudyConfig, idx: int) -> dict[str, float]:
    sample = generate_sample(
        config.n, config.setting, rng=substream(config.seed, ROLE_SAMPLE, idx)
    )
    v = randomize(config.n, substream(config.seed, ROLE_ASSIGN, idx))
    exp, _ = reveal(sample, v)
    dm = build_design(exp, config.f, config.g)
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


def _study_row(args: tuple[StudyConfig, int]) -> dict[str, float]:
    config, idx = args
    return _sate_row(config, idx) if config.mode == "sate" else _pate_row(config, idx)


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
    if config.mode == "pate" and config.randomizations != 1:
        config = StudyConfig(
            mode=config.mode,
            setting=config.setting,
            n=config.n,
            samples=config.samples,
            randomizations=1,
            alpha=config.alpha,
            f=config.f,
            g=config.g,
            seed=config.seed,
            workers=config.workers,
        )
    tasks = [(config, idx) for idx in range(config.samples)]
    if config.workers == 1:
        rows = [_study_row(t) for t in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(config.workers) as pool:
            chunk = max(1, config.samples // (config.workers * 8))
            rows = list(pool.map(_study_row, tasks, chunksize=chunk))

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
            fit = least_squares(a, ones, with_intercept=False)
            resid[r] = abs((n - float(fit.fitted @ fit.fitted)) / n - 1.0)
        else:
            resid[r] = 0.0
    return LemmaDiagnostics(n=n, reps=reps, off_block=off, ones_residual=resid)
