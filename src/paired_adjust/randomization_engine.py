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

All heavy paths share one batched kernel, :func:`_partialled_stats`,
which fits the regression design [1 | v*d | m] for a grid of T tables
by B sign vectors. The blocks d and m do not depend on the signs, so
each table's columns are whitened once (a thin QR, whose triangular
factor is the Cholesky factor of d'd or m'm), and only products of the
signs with those fixed bases are formed per assignment. By
Frisch-Waugh-Lovell partialling-out, R1 then needs no solve at all
(its intercept and e'(I-H)e are closed-form in dw'v and dw'(v*y)), and
R2 and its superpopulation correction need only the Schur complement
of the v*d columns after m is projected out, eliminated for every
assignment at once. A fit whose table or Schur pivots fall to RANK_RTOL
times their columns' squared norms is singular and comes back NaN, to
be counted by the callers. The grid takes two shapes: one table by
all 2^n codes (enumeration) or by B draws (Monte Carlo), and blocks of
tables by their B draws each (studies, with B = 1 in a pate study).
Both study modes go through one block path, :func:`_study_block`: it
reads each sample index's normals and signs from its own substreams,
turns the normals into stacked outcomes and covariates in one pass, so
no per-table sample object is built, and hands
``max(1, _STUDY_DRAWS // B)`` tables at a time to
:func:`_block_columns`, which returns one column per metric. Only the
per-mode arithmetic differs: a sate study takes Y from the
level/effect identity, and the plain mean's statistics with it, in
:func:`_grid_stats`, as enumeration and Monte Carlo do; a pate study
takes Y from the observed responses and checks it against the same
identity. Summaries over draws are taken on the grid too:
:func:`_summarize` reduces the last axis of a (..., B) stack, so a sate
study summarizes each estimator's (T, B) grid in one call, and
enumeration and Monte Carlo call it on their single row. Every mode
makes the same rank decision, the kernel's pivot tests, which do not
depend on the scale of any covariate column; a pate study raises for
the first sample, in index order, that fails them.
The whitening is ``ols_core._whiten``, which the single fits of
``ols_core.least_squares`` and ``validate_design`` share, so those
decide rank by the same pivot test. Estimates from this kernel agree
with the single-fit estimators to solver precision and are tested
against them, but never call them. The ones-projection residual of
:func:`lemma_diagnostics` is the same kernel's R2 denominator.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .dgp import (
    N_COVARIATES,
    SETTINGS,
    PotentialOutcomeSample,
    _stacked_tables,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    LengthMismatch,
    NonFiniteTransform,
    RankDeficient,
    TooFewPairs,
    TooLarge,
    WrongEstimator,
)
from .estimators import normal_quantile
from .experiment_model import (
    PairedExperiment,
    TransformSpec,
    block_widths,
    columns_centered,
    transformed_blocks,
)
from .ols_core import RANK_RTOL, _whiten
from .rng import ROLE_ASSIGN, ROLE_SAMPLE, substreams

ENUMERATION_CAP = 16
_CHUNK = 4096
# Assignments per kernel call in a study: a call takes
# max(1, _STUDY_DRAWS // B) tables and all B draws of each (B = 1 in a
# population study). Larger calls buy almost nothing and cost memory,
# about 0.6 MB per table at n=100, B=200; four such tables keep a
# worker's peak within 2% of one table per call. Results do not depend
# on it.
_STUDY_DRAWS = 800

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

    effects, gaps = _effects_and_gaps(r_t, r_c)
    check = effects + v * gaps
    scale = np.maximum(1.0, np.abs(observed).max(axis=(-2, -1), initial=0.0))
    agree = np.abs(y - check).max(axis=-1, initial=0.0) <= 1e-12 * scale
    return z, observed, y, agree


def _effects_and_gaps(r_t: np.ndarray, r_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair effects Delta_i and level gaps l_i1 - l_i2 of (..., n, 2) outcomes.

    With these, signs v give Y_i = Delta_i + v_i (l_i1 - l_i2), the
    level/effect identity; the level l of a unit is the average of its
    two potential outcomes. Each is (..., n).
    """
    ell = (r_t + r_c) / 2.0
    tau = r_t - r_c
    return (tau[..., 0] + tau[..., 1]) / 2.0, ell[..., 0] - ell[..., 1]


@dataclass(frozen=True)
class _Whitened:
    """The fixed design blocks of T tables, whitened once per table.

    The rows of ``dw`` (T, K_D, n) and ``w`` (T, K_M, n) are
    orthonormal bases of the columns of d and m (see :func:`_whiten`);
    ``ok_d`` and ``ok_m`` (T,) say which tables passed the pivot test.
    Since v_i^2 = 1, v*dw is orthonormal too, and since an intercept fit
    does not change when its other columns are replaced by an invertible
    combination of them, every fit can run in these coordinates.
    """

    dw: np.ndarray
    ok_d: np.ndarray
    w: np.ndarray
    ok_m: np.ndarray

    @classmethod
    def of(cls, d: np.ndarray, m: np.ndarray) -> "_Whitened":
        dw, passed_d, _, _, _ = _whiten(d)
        w, passed_m, _, _, _ = _whiten(m)
        return cls(dw, passed_d.all(axis=-1), w, passed_m.all(axis=-1))


def _eliminate(g: np.ndarray, k: int, floor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eliminate the first ``k`` columns of symmetric matrices ``g`` in place.

    ``g`` is (K, K, ...): one K-by-K matrix per index of the trailing
    grid axes, which come last so that every step works on whole
    grid-length vectors. This is symmetric Gaussian elimination without
    pivoting (an LDL' factorization); afterwards the trailing block of
    ``g`` holds the Schur complement of the leading k-by-k block.
    Returns the multipliers (K, k, ...), the below-diagonal entries of
    the unit lower factor, and whether every pivot j exceeded
    ``floor[j]``. A pivot that does not gets no multipliers, so the
    matrices stay finite.
    """
    low = np.zeros(g.shape[:1] + (k,) + g.shape[2:])
    ok = np.ones(g.shape[2:], dtype=bool)
    for j in range(k):
        piv = g[j, j]
        good = piv > floor[j]
        ok &= good
        low[j + 1 :, j] = g[j + 1 :, j] / np.where(good, piv, np.inf)
        g[j + 1 :, j + 1 :] -= low[j + 1 :, j, None] * g[j, None, j + 1 :]
    return low, ok


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of a[i] * b[i] over the leading axis, term by term in order.

    numpy's own reductions may group the terms differently when the
    grid has one point, so a fixed order keeps every fit's value
    independent of the grid it is computed in.
    """
    out = np.zeros(np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    for ai, bi in zip(a, b):
        out += ai * bi
    return out


def _products(a: np.ndarray, lhs: np.ndarray) -> np.ndarray:
    """Products of the rows of a (T, c, n) with those of lhs (T, B, n), as (c, T, B)."""
    return np.moveaxis(a @ lhs.swapaxes(-1, -2), -2, 0)


@dataclass(frozen=True)
class _SignProducts:
    """The assignment-dependent pieces of the intercept fits on a grid.

    For T tables by B sign vectors v with outcomes y (T, B, n), in the
    coordinates of ``blocks``: ``s`` = dw'v and ``t`` = dw'(v*y), the
    sums ``ysum`` and squared norms ``yty`` of y and, when the m block
    is needed, ``proj`` holding the products of v*dw (K_D rows), the
    ones vector and y with w. Only these involve the signs; everything
    else is fixed per table. Component axes come first and the grid
    axes (T, B) last: ``s`` and ``t`` are (K_D, T, B) and ``proj`` is
    (K_D + 2, K_M, T, B).
    """

    blocks: _Whitened
    n: int
    s: np.ndarray
    t: np.ndarray
    ysum: np.ndarray
    yty: np.ndarray
    proj: Optional[np.ndarray]

    @classmethod
    def of(
        cls, blocks: _Whitened, signs: np.ndarray, y: np.ndarray, with_m: bool
    ) -> "_SignProducts":
        t, b, n = signs.shape
        kd, km = blocks.dw.shape[1], blocks.w.shape[1]
        proj = None
        if with_m:
            cross = (blocks.dw[:, :, None] * blocks.w[:, None]).reshape(t, kd * km, n)
            proj = np.empty((kd + 2, km, t, b))
            proj[:kd] = _products(cross, signs).reshape(kd, km, t, b)
            proj[kd] = blocks.w.sum(axis=-1).T[..., None]
            proj[kd + 1] = _products(blocks.w, y)
        return cls(
            blocks=blocks,
            n=n,
            s=_products(blocks.dw, signs),
            t=_products(blocks.dw, signs * y),
            ysum=y.sum(axis=-1),
            yty=np.einsum("tbi,tbi->tb", y, y),
            proj=proj,
        )

    def r1(self) -> tuple[np.ndarray, np.ndarray]:
        """Intercept and classical variance of y on [1 | v*d], in closed form.

        With v*dw orthonormal, partialling it out leaves
        e'(I-H)e = n - s's and e'(I-H)y = 1'y - s't, so no solve is
        needed. Rows whose denominator is at most RANK_RTOL * n, or
        whose table failed the pivot test on d, come back NaN.
        """
        n, k1 = self.n, 1 + self.s.shape[0]
        denom = n - _dot(self.s, self.s)
        num = self.ysum - _dot(self.s, self.t)
        ok = self.blocks.ok_d[:, None] & (denom > RANK_RTOL * n)
        denom = np.where(ok, denom, 1.0)
        beta = num / denom
        sse = np.maximum(self.yty - _dot(self.t, self.t) - beta * num, 0.0)
        return _masked(ok, beta, sse / (n - k1) / denom)

    def r2(self, corrected: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Intercept fits of y on [1 | v*d | m] through the Schur complement.

        Partialling out the orthonormal w leaves the Gram of
        [v*dw | 1 | y] minus its products with w. Eliminating the v*dw
        columns of that bordered matrix leaves, for the ones vector and
        y, [[e'(I-H)e, e'(I-H)y], [., y'(I-H)y]] with H the projection
        onto [v*d | m] (FWL): its first pivot is the denominator
        e'(I-H)e, the intercept is the ratio along its first row, and
        what is left of y'(I-H)y after that pivot is the SSE. Each pivot
        must exceed RANK_RTOL times its column's squared norm before
        partialling out (one for a whitened column, n for the ones
        vector). Returns the intercept, the SSE, the denominator and, if
        ``corrected``, beta_m' (m'm) beta_m, which is the squared norm
        of the w coefficients. Rows that fail a pivot, or whose table
        failed the pivot test on d or m, come back NaN.
        """
        kd = self.s.shape[0]
        g = np.zeros((kd + 2, kd + 2) + self.ysum.shape)
        idx = np.arange(kd)
        g[idx, idx] = 1.0
        g[kd, kd] = self.n
        g[kd + 1, kd + 1] = self.yty
        g[:kd, kd] = g[kd, :kd] = self.s
        g[:kd, kd + 1] = g[kd + 1, :kd] = self.t
        g[kd, kd + 1] = g[kd + 1, kd] = self.ysum
        by_w = self.proj.swapaxes(0, 1)
        g -= _dot(by_w[:, :, None], by_w[:, None, :])
        floor = RANK_RTOL * np.append(np.ones(kd), self.n)
        low, ok = _eliminate(g, kd, floor)
        denom = g[kd, kd]
        ok &= (denom > floor[kd]) & (self.blocks.ok_d & self.blocks.ok_m)[:, None]
        denom = np.where(ok, denom, 1.0)
        beta0 = g[kd, kd + 1] / denom
        sse = np.maximum(g[kd + 1, kd + 1] - beta0 * g[kd, kd + 1], 0.0)
        corr = np.zeros_like(sse)
        if corrected:
            # Back-substitute for the v*dw coefficients (the intercept
            # comes last); the w coefficients are then w'y minus the
            # part of it the other columns fit.
            beta = np.empty((kd + 1,) + sse.shape)
            beta[kd] = beta0
            for j in reversed(range(kd)):
                beta[j] = low[kd + 1, j] - _dot(low[j + 1 : kd + 1, j], beta[j + 1 :])
            gamma = self.proj[kd + 1] - _dot(beta[:, None], self.proj[: kd + 1])
            corr = _dot(gamma, gamma)
        return _masked(ok, beta0, sse, denom, corr)

    def stats(self, want: Sequence[str]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """{id: (tau_hat, s2)} of the regression estimators ``want``, each (T, B).

        The classical variance is SSE/dof times the intercept entry
        1 / e'(I-H)e of the inverse Gram; R2P adds
        beta_m' (m'm) beta_m / ((n-1) n) to the R2 variance.
        """
        n = self.n
        out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        if "R1" in want:
            out["R1"] = self.r1()
        if "R2" in want or "R2P" in want:
            k2 = 1 + self.s.shape[0] + self.blocks.w.shape[1]
            beta0, sse, denom, corr = self.r2("R2P" in want)
            s2 = sse / (n - k2) / denom
            if "R2" in want:
                out["R2"] = (beta0, s2)
            if "R2P" in want:
                out["R2P"] = (beta0, s2 + corr / ((n - 1) * n))
        return {est: out[est] for est in want}


def _masked(ok: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays with NaN wherever ``ok`` is False."""
    return tuple(np.where(ok, a, np.nan) for a in arrays)


def _partialled_stats(
    d: np.ndarray,
    m: np.ndarray,
    signs: np.ndarray,
    y: np.ndarray,
    want: Sequence[str],
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-assignment (tau_hat, s2) of the regression estimators ``want``.

    ``d`` (T, n, K_D) and ``m`` (T, n, K_M) are the fixed design blocks
    of T tables; ``signs`` and ``y`` (T, B, n) hold B assignments per
    table. Each table's blocks are whitened once; the assignments then
    go through :class:`_SignProducts` in chunks of ``_CHUNK``. Returns
    (T, B) arrays; singular fits are NaN.
    """
    blocks = _Whitened.of(d, m)
    with_m = "R2" in want or "R2P" in want
    parts = [
        _SignProducts.of(
            blocks, signs[:, lo : lo + _CHUNK], y[:, lo : lo + _CHUNK], with_m
        ).stats(want)
        for lo in range(0, signs.shape[1], _CHUNK)
    ]
    return {
        est: tuple(np.concatenate([p[est][i] for p in parts], axis=1) for i in (0, 1))
        for est in want
    }


def _classical_stats(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tau_hat and S^2 of the plain mean, over the last axis of (..., B, n)."""
    n = y.shape[-1]
    tau = y.mean(axis=-1)
    s2 = ((y - tau[..., None]) ** 2).sum(axis=-1) / (n * (n - 1))
    return tau, s2


def _grid_stats(
    effects: np.ndarray,
    gaps: np.ndarray,
    signs: np.ndarray,
    blocks: Optional[tuple[np.ndarray, np.ndarray]],
    want: Sequence[str],
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-assignment (tau_hat, s2) of the estimators ``want`` for T tables.

    ``effects`` and ``gaps`` (T, n) come from :func:`_effects_and_gaps`
    and ``signs`` (T, B, n) holds B assignments per table. Y follows from
    the level/effect identity; the regression estimators need the fixed
    (d, m) ``blocks``, each (T, n, K), and go through
    :func:`_partialled_stats`. Returns (T, B) arrays, each table's
    values bit for bit those it gets alone.
    """
    y = effects[:, None] + signs * gaps[:, None]
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    if "C" in want:
        out["C"] = _classical_stats(y)
    reg_ids = [est for est in want if est != "C"]
    if reg_ids:
        out.update(_partialled_stats(*blocks, signs, y, reg_ids))
    return {est: out[est] for est in want}


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


def _pair_count(sample: PotentialOutcomeSample) -> int:
    """The table's n; the mean's S^2 needs n >= 2, as in estimate_classical."""
    if sample.n < 2:
        raise TooFewPairs(f"need at least 2 pairs, got {sample.n}")
    return sample.n


def _table_stats(
    sample: PotentialOutcomeSample,
    signs: np.ndarray,
    blocks: Optional[tuple[np.ndarray, np.ndarray]],
    want: Sequence[str],
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """:func:`_grid_stats` for one table and its (B, n) ``signs``, as (B,) arrays."""
    effects, gaps = _effects_and_gaps(sample.r_t, sample.r_c)
    if blocks is not None:
        blocks = (blocks[0][None], blocks[1][None])
    stats = _grid_stats(effects[None], gaps[None], signs[None], blocks, want)
    return {est: (tau[0], s2[0]) for est, (tau, s2) in stats.items()}


@dataclass(frozen=True)
class EstimatorSummary:
    """Summary of one estimator over a set of assignments.

    Each field is a Python number for one set, or an array with one
    entry per set when :func:`_summarize` reduced a stack of them.
    """

    mean: float
    variance: float
    rmse: float
    coverage: float
    mean_se: float
    mean_s2: float
    errors: int = 0


def _summarize(
    tau: np.ndarray, s2: np.ndarray, target: float | np.ndarray, alpha: float
) -> EstimatorSummary:
    """Moments, RMSE and interval coverage against ``target``, over the last axis.

    ``tau`` and ``s2`` are (..., B): B assignments for each index of the
    leading shape, which ``target`` broadcasts over and every field of
    the result has. A 1-D call gives Python numbers. Assignments with a
    non-finite estimate are counted in ``errors`` and left out of every
    other number; an index with none left gets NaN. A dropped entry
    enters the sums as an exact zero, so a row without drops reduces
    bit for bit as it does alone, and one with drops differs from
    reducing its kept entries only by the rounding of the sums.
    """
    ok = np.isfinite(tau) & np.isfinite(s2)
    bad = ~ok
    kept = np.count_nonzero(ok, axis=-1)
    tau, s2 = tau.copy(), s2.copy()
    tau[bad] = 0.0
    s2[bad] = 0.0
    # Work in place where a value is used once: at 2^16 draws each fresh
    # temporary costs about as much as the arithmetic on it.
    with np.errstate(invalid="ignore"):
        mean = tau.sum(axis=-1) / kept
        dev = tau - mean[..., None]
        dev[bad] = 0.0
        variance = np.square(dev, out=dev).sum(axis=-1) / kept
        miss = np.subtract(tau, np.asarray(target)[..., None], out=dev)
        miss[bad] = 0.0
        se = np.sqrt(s2)
        mean_se = se.sum(axis=-1) / kept
        half = np.multiply(se, normal_quantile(1.0 - alpha / 2.0), out=se)
        hit = (np.abs(miss, out=miss) <= half) & ok
        fields = (
            mean,
            variance,
            np.sqrt(np.square(miss, out=miss).sum(axis=-1) / kept),
            np.count_nonzero(hit, axis=-1) / kept,
            mean_se,
            s2.sum(axis=-1) / kept,
        )
    errors = tau.shape[-1] - kept
    if tau.ndim == 1:
        return EstimatorSummary(*map(float, fields), int(errors))
    return EstimatorSummary(*fields, errors)


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
    Raises TooFewPairs below 2 pairs and TooLarge beyond the cap
    (default 16 pairs, 65536 assignments).
    """
    n = _pair_count(sample)
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
    rather than aborting the run. Raises TooFewPairs below 2 pairs.
    """
    if b < 1:
        raise ConfigError(f"need b >= 1, got {b}")
    est_ids = tuple(estimators)
    for est in est_ids:
        if est not in ESTIMATOR_IDS:
            raise WrongEstimator(f"unknown estimator {est!r}")
    if rng is None:
        rng = np.random.default_rng()
    _pair_count(sample)

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
    if config.seed < 0:
        raise ConfigError(f"need seed >= 0, got {config.seed}")
    try:
        k_d, k_m = block_widths(config.f, config.g, N_COVARIATES)
    except DimensionMismatch as exc:
        raise ConfigError(f"transform does not fit the generated covariates: {exc}") from None
    if config.n <= k_d + k_m + 1:
        raise ConfigError(
            f"n={config.n} too small for the transforms (need n > {k_d + k_m + 1})"
        )
    if config.mode == "pate" and k_m == 0:
        raise ConfigError("superpopulation correction needs at least one m column")
    if config.mode == "pate" and config.samples < 2:
        raise ConfigError(
            f"pate mode needs samples >= 2, got {config.samples}: its metrics divide "
            "by the standard deviation of the estimates across samples"
        )
    return config


def _read_streams(
    config: StudyConfig, idxs: Sequence[int], per_call: int
) -> Iterator[tuple[Sequence[int], np.ndarray, np.ndarray]]:
    """Yield ``idxs`` ``per_call`` at a time, with their (T, 10n) normals and (T, B, n) signs.

    Index i draws its table's normals from ``substream(seed, ROLE_SAMPLE,
    i)`` and its B = ``config.randomizations`` assignments from
    ``substream(seed, ROLE_ASSIGN, i)``. Row t of the normals is what
    :func:`generate_sample` draws from the same stream, and one
    assignment drawn as a (1, n) block is the (n,) one :func:`randomize`
    draws without ``b``. The streams are read through :func:`substreams`,
    which draws what those ``substream`` calls draw. It is opened once
    for all of ``idxs``, so the keys of a block are hashed in one pass
    whatever the number of indices per call.
    """
    n, b = config.n, config.randomizations
    sample = substreams(config.seed, ROLE_SAMPLE, idxs)
    assign = substreams(config.seed, ROLE_ASSIGN, idxs)
    for lo in range(0, len(idxs), per_call):
        call = idxs[lo : lo + per_call]
        normals = np.empty((len(call), 10 * n))
        signs = np.empty((len(call), b, n))
        for j, rng in enumerate(islice(sample, len(call))):
            normals[j] = rng.standard_normal(10 * n)
        for j, rng in enumerate(islice(assign, len(call))):
            signs[j] = randomize(n, rng, b)
        yield call, normals, signs


def _concat(parts: Sequence[Mapping[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Metric columns of consecutive blocks, joined in order."""
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


def _study_block(args: tuple[StudyConfig, Sequence[int]]) -> dict[str, np.ndarray]:
    """Metric columns of sample indices ``idxs``, in order.

    Each index's table and B assignments come from its own substreams
    (see :func:`_read_streams`), so a value does not depend on the block
    it is computed in. The tables are built as stacked arrays, bit for
    bit the tables :func:`generate_sample` draws from the same streams,
    and go through :func:`_block_columns` ``max(1, _STUDY_DRAWS // B)``
    at a time.
    """
    config, idxs = args
    per_call = max(1, _STUDY_DRAWS // config.randomizations)
    parts = []
    for call, normals, signs in _read_streams(config, idxs, per_call):
        _, r_t, r_c, x = _stacked_tables(normals, config.setting)
        parts.append(_block_columns(config, r_t, r_c, x, signs, call))
    return _concat(parts)


def _block_columns(
    config: StudyConfig,
    r_t: np.ndarray,
    r_c: np.ndarray,
    x: np.ndarray,
    signs: np.ndarray,
    idxs: Sequence[int],
) -> dict[str, np.ndarray]:
    """Metric columns of a stack of tables, each (T,), in order.

    Table j has potential outcomes ``r_t[j]``, ``r_c[j]`` (n, 2) and
    observed covariates ``x[j]`` (n, 2, 4), meets the signs ``signs[j]``
    (B, n) and is sample ``idxs[j]`` of its study. The columns come from
    :func:`_sate_columns` or :func:`_pate_columns`, by ``config.mode``.
    When the stack's transforms are not finite, its tables go through
    this function one at a time, so the first failing table raises what
    it raises alone: which transform fails first may differ between it
    and the stack, and in a population study an earlier table may fail
    another check.
    """
    try:
        blocks = transformed_blocks(x, config.f, config.g)
    except NonFiniteTransform:
        if len(signs) == 1:
            raise
        return _concat([
            _block_columns(
                config, r_t[j : j + 1], r_c[j : j + 1], x[j : j + 1], signs[j : j + 1],
                idxs[j : j + 1],
            )
            for j in range(len(signs))
        ])
    if config.mode == "sate":
        return _sate_columns(r_t, r_c, signs, blocks, config.alpha)
    return _pate_columns(r_t, r_c, signs, blocks, idxs)


def _sate_columns(
    r_t: np.ndarray,
    r_c: np.ndarray,
    signs: np.ndarray,
    blocks: tuple[np.ndarray, np.ndarray],
    alpha: float,
) -> dict[str, np.ndarray]:
    """In-sample metrics of each table over its B draws.

    Every table's draws go through :func:`_grid_stats` together, and
    each estimator's (T, B) grid is summarized in one call against each
    table's own average effect. Singular draws are left out of the
    summaries.
    """
    effects, gaps = _effects_and_gaps(r_t, r_c)
    stats = _grid_stats(effects, gaps, signs, blocks, ("C", "R1", "R2"))
    sates = effects.mean(axis=-1)
    c, r1, r2 = (_summarize(tau, s2, sates, alpha) for tau, s2 in stats.values())
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


def _pate_columns(
    r_t: np.ndarray,
    r_c: np.ndarray,
    signs: np.ndarray,
    blocks: tuple[np.ndarray, np.ndarray],
    idxs: Sequence[int],
) -> dict[str, np.ndarray]:
    """Estimates and standard errors of each table's one draw.

    Y comes from the observed responses. The first table in order that
    fails raises, and its first failing check picks the error:
    AssertionError when its Y fails the reveal cross-check,
    DimensionMismatch when its m columns fail :func:`columns_centered`
    (the test :class:`DesignMatrices` applies), and RankDeficient,
    naming the sample, when its R1 or R2P fit is singular under the
    kernel's pivot tests, the same rank decision as in the other modes.
    """
    d, m = blocks
    _, _, y, agree = _observe(r_t, r_c, signs[:, 0])
    stats = {
        est: (tau[:, 0], s2[:, 0])
        for est, (tau, s2) in _partialled_stats(
            d, m, signs, y[:, None], ("R1", "R2", "R2P")
        ).items()
    }
    centered = columns_centered(m)
    full_rank = np.isfinite(stats["R1"][1]) & np.isfinite(stats["R2P"][1])
    bad = np.flatnonzero(~(agree & centered & full_rank))
    if bad.size:
        j = bad[0]
        if not agree[j]:
            raise AssertionError("observed-response and level/effect Y constructions disagree")
        if not centered[j]:
            raise DimensionMismatch("m columns must sum to zero across pairs")
        raise RankDeficient(f"sample {idxs[j]}: the regression design is rank deficient")
    tau_c, s2_c = _classical_stats(y)
    return {
        "tau_C": tau_c,
        "se_C": np.sqrt(s2_c),
        "tau_R1": stats["R1"][0],
        "se_R1": np.sqrt(stats["R1"][1]),
        "tau_R2": stats["R2"][0],
        "se_R2": np.sqrt(stats["R2"][1]),
        "se_R2P": np.sqrt(stats["R2P"][1]),
    }


@dataclass(frozen=True)
class StudyReport:
    """Aggregated study results.

    ``config`` is the study that was run, with the randomizations
    count forced to 1 in pate mode. ``metrics`` maps metric names to
    {median, q025, q975} dicts in sate mode, or to plain floats in pate
    mode (those metrics are already cross-sample aggregates). The worker
    count is deliberately not written out: results do not depend on it.
    """

    config: StudyConfig
    metrics: Mapping[str, object]

    def to_json_dict(self) -> dict:
        c = self.config
        return {
            "config": {
                "mode": c.mode,
                "setting": c.setting,
                "n": c.n,
                "samples": c.samples,
                "randomizations": c.randomizations,
                "alpha": c.alpha,
                "seed": c.seed,
                "f": c.f.to_dict(),
                "g": c.g.to_dict(),
            },
            "metrics": {k: v for k, v in self.metrics.items()},
        }

    def to_csv(self) -> str:
        lines = []
        if self.config.mode == "sate":
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
    every sample index gets its own substreams and metric columns are
    aggregated in index order.
    """
    config = _validate_config(config)
    if config.mode == "pate":
        config = replace(config, randomizations=1)
    # A task splits its tables into kernel calls by _STUDY_DRAWS, so its
    # size only balances the process pool.
    size = max(1, config.samples // (config.workers * 8))
    tasks = [
        (config, range(lo, min(lo + size, config.samples)))
        for lo in range(0, config.samples, size)
    ]
    if config.workers == 1:
        blocks = list(map(_study_block, tasks))
    else:
        with concurrent.futures.ProcessPoolExecutor(config.workers) as pool:
            blocks = list(pool.map(_study_block, tasks))
    columns = _concat(blocks)

    if config.mode == "sate":
        metrics: dict[str, object] = {}
        for name, vals in columns.items():
            med, lo, hi = np.quantile(vals, [0.5, 0.025, 0.975])
            metrics[name] = {"median": float(med), "q025": float(lo), "q975": float(hi)}
    else:
        metrics = _aggregate_pate(columns, config.alpha)
    return StudyReport(config, metrics)


def _aggregate_pate(columns: Mapping[str, np.ndarray], alpha: float) -> dict[str, object]:
    """Cross-sample aggregates against the population target of zero."""
    z = normal_quantile(1.0 - alpha / 2.0)
    tau = {e: columns[f"tau_{e}"] for e in ("C", "R1", "R2")}
    se = {e: columns[f"se_{e}"] for e in ("C", "R1", "R2", "R2P")}
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
    cols = 1 + d.shape[1] + m.shape[1]
    if n < cols:
        raise RankDeficient(f"{cols} columns but only {n} rows")
    if signs is None:
        v = randomize(n, rng, reps)
    else:
        v = np.asarray(signs, dtype=float)
        if v.shape != (n,):
            raise LengthMismatch(f"signs have shape {v.shape}, need ({n},)")
        v = np.broadcast_to(v, (reps, n))
    if d.shape[1] and m.shape[1]:
        # (v*d)'m = sum_i v_i d_i m_i', one row of sign products per repetition.
        cross = (d[:, :, None] * m[:, None, :]).reshape(n, -1)
        off = np.abs(v @ cross).max(axis=-1) / n
    else:
        off = np.zeros(reps)
    # e'(I - H)e is the intercept denominator of the fit on [1 | vd | m].
    prods = _SignProducts.of(_Whitened.of(d[None], m[None]), v[None], np.zeros((1, reps, n)), True)
    denom = prods.r2(corrected=False)[2][0]
    bad = ~np.isfinite(denom)
    if bad.any():
        raise RankDeficient(
            f"{int(bad.sum())} of {reps} assignments give a singular design "
            f"(first repetition {int(np.flatnonzero(bad)[0])})"
        )
    resid = np.abs(denom / n - 1.0)
    return LemmaDiagnostics(n=n, reps=reps, off_block=off, ones_residual=resid)
