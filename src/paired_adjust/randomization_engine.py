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

All heavy paths share one batched kernel, :func:`_grid_stats`, which
fits the plain mean and the regression design [1 | v*d | m] for a grid
of T tables by B sign vectors. A table enters as its pair effects Delta
and level gaps g, which signs v turn into Y = Delta + v*g (the
level/effect identity); Y itself is never formed. The blocks d and m do
not depend on the signs, so each table's columns are whitened once (a
thin QR, whose triangular factor is the Cholesky factor of d'd or m'm).
The effects are centered on their mean, which only shifts every
intercept and is added back at the end. Since v_i^2 = 1, every sign
product a fit needs is then affine in v: a fixed part per table plus
the products of v with fixed columns, the outer product of [dw; g] and
[1; centered Delta; w] (:class:`_TableColumns`). So one matrix product
of those columns with a chunk of signs gives everything that depends on
the assignment (:class:`_SignProducts`). The mean needs only 1'Y and
Y'Y; by Frisch-Waugh-Lovell partialling-out, R1 needs no solve either
(its intercept and e'(I-H)e are closed-form in dw'v and dw'(v*Y)), and
R2 and its superpopulation correction need only the Schur complement
of the v*d columns after m is projected out, eliminated for every
assignment at once. A fit whose table or Schur pivots fall to RANK_RTOL
times their columns' squared norms is singular and comes back NaN, to
be counted by the callers. The grid takes two shapes: one table by
all 2^n codes (enumeration) or by B draws (Monte Carlo), and blocks of
tables by their B draws each (studies, with B = 1 in a pate study).
Both study modes go through one block path, :func:`_study_block`. It
reads each sample index's normals and signs from its own substreams
(:class:`_StudyStreams`) and cuts its indices into slabs of at most
``_STUDY_PAIRS`` pairs (:func:`_slab_size`). A slab builds what does
not depend on the signs once (:func:`_slabs`, :class:`_Slab`): the
stacked outcomes and covariates in one pass, so no per-table sample
object is built, then the blocks, their whitened bases and the effects
and gaps. Its tables then meet their signs in kernel calls of at most
``_STUDY_DRAWS`` draws (:func:`_call_size`); each call builds its
tables' fixed columns, runs the sign products and returns one column
per metric (:func:`_sate_columns`, :func:`_pate_columns`). Those caps
bound memory and do not depend on the worker count: :func:`run_study`
gives each worker one contiguous, near-equal share of the sample
indices, the calling process computing the first share and a process
pool the rest. Only the per-mode arithmetic differs: a sate study
summarizes each table's B draws, and a pate study also builds Y from
the observed responses, only to check it against the level/effect
identity. Summaries over draws are taken on the grid too:
:func:`_summarize` reduces the last axis of a (..., B) stack, so a
sate study summarizes each estimator's (T, B) grid in one call, and
enumeration and Monte Carlo call it on their single row. Every entry
point first asks ``experiment_model.design_estimators`` which
estimators the design allows, the one size rule, and every mode makes
the same rank decision, the kernel's pivot tests, which do not depend
on the scale of any covariate column; a pate study raises for the
first sample, in index order, that fails them.
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
    TooLarge,
    WrongEstimator,
)
from .estimators import normal_quantile
from .experiment_model import (
    PairedExperiment,
    TransformSpec,
    columns_centered,
    design_estimators,
    transformed_blocks,
)
from .ols_core import RANK_RTOL, _whiten
from .rng import ROLE_ASSIGN, ROLE_SAMPLE, substreams

ENUMERATION_CAP = 16
_CHUNK = 4096
# Sizes in a study, which cuts each worker's share into the fewest
# slabs and each slab into the fewest kernel calls, all but the last of
# one size (see _slab_size and _call_size). A slab builds the
# sign-independent part of its tables once: their normals, covariates
# and blocks, the whitened bases and the effects and gaps. _STUDY_PAIRS
# bounds the pairs it holds (at least one table), so it bounds the
# memory of that build, about 45 KB per table at n = 100 (64 tables),
# and the per-slab cost is paid once for that many pairs. A kernel call
# takes all B draws of each of its tables (B = 1 in a population
# study); _STUDY_DRAWS bounds the draws in all (at least one table),
# so it bounds the signs, sign products and summaries held at once,
# about 0.6 MB per table at n = 100, B = 200, where four tables keep a
# worker's peak within 2% of one table per call. Larger calls buy
# almost nothing: in a population study at n = 25, S = 2000, a slab of
# 250 tables is one call. Results depend on neither cap.
_STUDY_DRAWS = 800
_STUDY_PAIRS = 6400

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


def _signs_of_words(raw: np.ndarray, b: int, n: int) -> np.ndarray:
    """Decode (T, ceil(b*n/2)) raw Philox words into (T, b, n) pair signs.

    Row t is what :func:`randomize` draws with ``b`` from a fresh stream
    whose first words are ``raw[t]``. ``Generator.integers(0, 2)`` takes
    each value from one 32-bit half word, low half then high half of
    each 64-bit word, by Lemire's method: the half times 2, shifted
    down 32 bits, which is the half's top bit. Its rejection threshold
    is (2^32 - 2) mod 2 = 0, so no half is ever redrawn. The decode is
    valid only for words read with ``random_raw`` from a freshly keyed
    Philox, with no spare half word buffered, as
    :meth:`_StudyStreams.signs` reads them; any other generator goes
    through :func:`randomize`.
    """
    halves = raw.astype("<u8", copy=False).view("<u4")[:, : b * n] >> 31
    return (2.0 * halves - 1.0).reshape(len(raw), b, n)


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
    z, observed, y, agree = _observe(
        sample.r_t, sample.r_c, v, *_effects_and_gaps(sample.r_t, sample.r_c)
    )
    if not agree:
        raise AssertionError("observed-response and level/effect Y constructions disagree")

    exp = PairedExperiment(x=sample.x, z=z, y=observed)
    return exp, y


def _observe(
    r_t: np.ndarray, r_c: np.ndarray, v: np.ndarray, effects: np.ndarray, gaps: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Treatment flags, observed responses and Y for signs v.

    Works on one table (r_t, r_c of shape (n, 2), v of shape (n,)) or a
    stack of them (leading axes in front), whose Delta ``effects`` and
    l_i1 - l_i2 ``gaps`` come from :func:`_effects_and_gaps`. Returns
    (z, observed, y, agree): ``agree`` says, per table, whether Y agrees
    with the level/effect identity Y_i = Delta_i + v_i (l_i1 - l_i2) to
    1e-12 of the response scale.
    """
    z = np.empty(r_t.shape, dtype=int)
    z[..., 0] = (v > 0).astype(int)
    z[..., 1] = 1 - z[..., 0]
    observed = np.where(z == 1, r_t, r_c)
    y = v * (observed[..., 0] - observed[..., 1])

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

    def __getitem__(self, rows: slice) -> "_Whitened":
        """The tables ``rows`` of the stack, as views."""
        return _Whitened(self.dw[rows], self.ok_d[rows], self.w[rows], self.ok_m[rows])


def _eliminate(g: np.ndarray, k: int, floor: np.ndarray) -> np.ndarray:
    """Eliminate the first ``k`` columns of symmetric matrices ``g`` in place.

    ``g`` is (K, K, ...): one K-by-K matrix per index of the trailing
    grid axes, which come last so that every step works on whole
    grid-length vectors. This is symmetric Gaussian elimination without
    pivoting (an LDL' factorization); afterwards the trailing block of
    ``g`` holds the Schur complement of the leading k-by-k block, and
    the first k columns below the diagonal hold the multipliers, the
    below-diagonal entries of the unit lower factor. Returns whether
    every pivot j exceeded ``floor[j]``. A pivot that does not gets zero
    multipliers, so the matrices stay finite.
    """
    ok = np.ones(g.shape[2:], dtype=bool)
    for j in range(k):
        piv = g[j, j]
        good = piv > floor[j]
        ok &= good
        g[j + 1 :, j] /= np.where(good, piv, np.inf)
        g[j + 1 :, j + 1 :] -= g[j + 1 :, j, None] * g[j, None, j + 1 :]
    return ok


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


@dataclass(frozen=True)
class _TableColumns:
    """The sign-independent half of the sign products of T tables.

    Y = Delta + v*g, with Delta the pair effects and g the level gaps
    (:func:`_effects_and_gaps`). The kernel fits the centered response
    Yc = Dc + v*g, where Dc = Delta - ``mean`` and ``mean`` (T, 1) is
    each table's mean effect; since the ones vector is in every design,
    only the intercept moves, by ``mean``, and is shifted back at the
    end. Because v_i^2 = 1, every sign product the fits need is then
    affine in v: a fixed part, held here, plus products of v with the
    ``columns`` (T, P, n). These are the outer product of L = [dw; g]
    (K_D + 1 rows) and R = [1; Dc; w] (2 + K_M rows, or 2 when
    ``with_m`` is False and the fits need no m block), L-major: dw,
    dw*Dc, dw*w, then g, g*Dc, g*w. They are built row-major over the
    whole stack, (P, T, n), so each product row is one long pass, and
    handed on as a (T, P, n) view. The fixed parts, component axes
    first: ``dw_gaps`` (K_D, T, 1) = dw'g, ``w_sum`` and ``w_centered``
    (K_M, T, 1) = w'1 and w'Dc, ``dc_sum`` (T, 1) = 1'Dc and
    ``squares`` (T, 1) = Dc'Dc + g'g. The rounded mean leaves 1'Dc a
    few ulps from zero; it is kept, so the products are exactly those
    of Dc + v*g and the rounding moves only the intercept.
    """

    blocks: _Whitened
    with_m: bool
    mean: np.ndarray
    columns: np.ndarray
    dw_gaps: np.ndarray
    w_sum: np.ndarray
    w_centered: np.ndarray
    dc_sum: np.ndarray
    squares: np.ndarray

    @classmethod
    def of(
        cls, blocks: _Whitened, effects: np.ndarray, gaps: np.ndarray, with_m: bool
    ) -> "_TableColumns":
        dw, w = blocks.dw, blocks.w
        t, kd, n = dw.shape
        km = w.shape[1] if with_m else 0
        mean = effects.mean(axis=-1, keepdims=True)
        dc = effects - mean
        cols = np.empty((kd + 1, 2 + km, t, n))
        left = cols[:, 0]  # L times the ones row of R is L itself
        left[:kd] = dw.swapaxes(0, 1)
        left[kd] = gaps
        right = np.empty((1 + km, t, n))  # the other rows of R
        right[0] = dc
        right[1:] = w[:, :km].swapaxes(0, 1)
        np.multiply(left[:, None], right, out=cols[:, 1:])
        by_gaps = np.einsum("ltn,tn->lt", left, gaps)  # dw'g, then g'g
        by_dc = np.einsum("rtn,tn->rt", right, dc)  # Dc'Dc, then w'Dc
        return cls(
            blocks=blocks,
            with_m=with_m,
            mean=mean,
            columns=cols.reshape(-1, t, n).swapaxes(0, 1),
            dw_gaps=by_gaps[:kd, :, None],
            w_sum=np.einsum("rtn->rt", right[1:])[..., None],
            w_centered=by_dc[1:, :, None],
            dc_sum=dc.sum(axis=-1, keepdims=True),
            squares=(by_dc[0] + by_gaps[kd])[:, None],
        )


@dataclass(frozen=True)
class _SignProducts:
    """The assignment-dependent pieces of the intercept fits on a grid.

    For T tables by B sign vectors v, with y the centered response of
    :class:`_TableColumns` and in the coordinates of its ``blocks``:
    ``s`` = dw'v and ``t`` = dw'(v*y), the sums ``ysum`` and squared
    norms ``yty`` of y and, when the m block is needed, ``proj`` holding
    the products of v*dw (K_D rows), the ones vector and y with w. All
    come from one product of the table's fixed columns with the signs.
    Component axes come first and the grid axes (T, B) last: ``s`` and
    ``t`` are (K_D, T, B) and ``proj`` is (K_D + 2, K_M, T, B).
    ``mean`` (T, 1) is added back to every intercept.
    """

    blocks: _Whitened
    n: int
    mean: np.ndarray
    s: np.ndarray
    t: np.ndarray
    ysum: np.ndarray
    yty: np.ndarray
    proj: Optional[np.ndarray]

    @classmethod
    def of(cls, table: _TableColumns, signs: np.ndarray) -> "_SignProducts":
        t, b, n = signs.shape
        kd = table.blocks.dw.shape[1]
        # (T, P, B) -> (K_D + 1, R, T, B): row l of L by row r of R.
        # Nothing keeps a view of x, so it is freed before the fits.
        x = (table.columns @ signs.swapaxes(-1, -2)).reshape(t, kd + 1, -1, b)
        x = x.transpose(1, 2, 0, 3)
        proj = None
        if table.with_m:
            proj = np.empty((kd + 2, x.shape[1] - 2, t, b))
            proj[:kd] = x[:kd, 2:]
            proj[kd] = table.w_sum
            np.add(table.w_centered, x[kd, 2:], out=proj[kd + 1])
        return cls(
            blocks=table.blocks,
            n=n,
            mean=table.mean,
            s=x[:kd, 0].copy(),
            t=x[:kd, 1] + table.dw_gaps,
            ysum=table.dc_sum + x[kd, 0],
            yty=table.squares + 2.0 * x[kd, 1],
            proj=proj,
        )

    def classical(self) -> tuple[np.ndarray, np.ndarray]:
        """tau_hat and S^2 of the plain mean, in closed form.

        tau_hat is ``mean`` + 1'y / n, and S^2 n (n-1) is
        y'y - (1'y)^2 / n, clamped at 0 like the SSE. The centering
        leaves y'y of the size of the spread of Y, not of its mean, so
        the difference does not cancel away the digits of S^2.
        """
        n = self.n
        s2 = np.maximum(self.yty - self.ysum * self.ysum / n, 0.0) / (n * (n - 1))
        return self.mean + self.ysum / n, s2

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
        return _masked(ok, self.mean + beta, sse / (n - k1) / denom)

    def r2(self, corrected: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Intercept fits of y on [1 | v*d | m] through the Schur complement.

        Partialling out the orthonormal w leaves the Gram of
        [v*dw | 1 | y] minus its products with w. Each w column's
        products are subtracted in turn, in place, from the v*dw rows and
        from the [1 | y] corner, and the v*dw rows' corner columns are
        then mirrored below, so the largest temporary is K_D by K_D + 2
        per grid point, not a whole Gram; every block stays exactly
        symmetric, since a_i a_j = a_j a_i. Eliminating the v*dw columns
        of that bordered matrix leaves, for the ones vector and y,
        [[e'(I-H)e, e'(I-H)y], [., y'(I-H)y]] with H the projection onto
        [v*d | m] (FWL): its first pivot is the denominator e'(I-H)e,
        the intercept is the ratio along its first row, and what is left
        of y'(I-H)y after that pivot is the SSE. Each pivot must exceed
        RANK_RTOL times its column's squared norm before partialling out
        (one for a whitened column, n for the ones vector). Returns the
        intercept, the SSE, the denominator and, if ``corrected``,
        beta_m' (m'm) beta_m, which is the squared norm of the w
        coefficients. Rows that fail a pivot, or whose table failed the
        pivot test on d or m, come back NaN.
        """
        kd = self.s.shape[0]
        g = np.empty((kd + 2, kd + 2) + self.ysum.shape)
        g[:kd, :kd] = np.eye(kd)[:, :, None, None]
        g[kd, kd] = self.n
        g[kd + 1, kd + 1] = self.yty
        g[:kd, kd] = self.s
        g[:kd, kd + 1] = self.t
        g[kd, kd + 1] = g[kd + 1, kd] = self.ysum
        for k in range(self.proj.shape[1]):
            a = self.proj[:, k]
            g[:kd] -= a[:kd, None] * a[None]
            g[kd:, kd:] -= a[kd:, None] * a[None, kd:]
        g[kd:, :kd] = g[:kd, kd:].swapaxes(0, 1)
        floor = RANK_RTOL * np.append(np.ones(kd), self.n)
        ok = _eliminate(g, kd, floor)
        denom = g[kd, kd]
        ok &= (denom > floor[kd]) & (self.blocks.ok_d & self.blocks.ok_m)[:, None]
        denom = np.where(ok, denom, 1.0)
        beta0 = g[kd, kd + 1] / denom
        sse = np.maximum(g[kd + 1, kd + 1] - beta0 * g[kd, kd + 1], 0.0)
        corr = np.zeros_like(sse)
        if corrected:
            # Back-substitute for the v*dw coefficients (the intercept
            # comes last) through the multipliers below g's diagonal;
            # the w coefficients are then w'y minus the part of it the
            # other columns fit.
            beta = np.empty((kd + 1,) + sse.shape)
            beta[kd] = beta0
            for j in reversed(range(kd)):
                beta[j] = g[kd + 1, j] - _dot(g[j + 1 : kd + 1, j], beta[j + 1 :])
            gamma = self.proj[kd + 1] - _dot(beta[:, None], self.proj[: kd + 1])
            corr = _dot(gamma, gamma)
        return _masked(ok, self.mean + beta0, sse, denom, corr)

    def stats(self, want: Sequence[str]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """{id: (tau_hat, s2)} of the estimators ``want``, each (T, B).

        The classical variance of a regression is SSE/dof times the
        intercept entry 1 / e'(I-H)e of the inverse Gram; R2P adds
        beta_m' (m'm) beta_m / ((n-1) n) to the R2 variance.
        """
        n = self.n
        out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        if "C" in want:
            out["C"] = self.classical()
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


def _grid_stats(
    effects: np.ndarray,
    gaps: np.ndarray,
    signs: np.ndarray,
    blocks: Optional[tuple[np.ndarray, np.ndarray]],
    want: Sequence[str],
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-assignment (tau_hat, s2) of the estimators ``want`` for T tables.

    ``effects`` and ``gaps`` (T, n) come from :func:`_effects_and_gaps`
    and ``signs`` (T, B, n) holds B assignments per table, which meet
    Y = effects + signs * gaps. The regression estimators need the fixed
    (d, m) ``blocks``, each (T, n, K); with None, only "C" may be asked
    for. The blocks are whitened here, and the rest is
    :func:`_sign_stats`. Returns (T, B) arrays, each table's values bit
    for bit those it gets alone; singular fits are NaN.
    """
    if blocks is None:
        blocks = (np.empty(effects.shape + (0,)),) * 2
    return _sign_stats(_Whitened.of(*blocks), effects, gaps, signs, want)


def _sign_stats(
    blocks: _Whitened,
    effects: np.ndarray,
    gaps: np.ndarray,
    signs: np.ndarray,
    want: Sequence[str],
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """:func:`_grid_stats` for T tables whose blocks are already whitened.

    Each table's fixed columns are built once (:class:`_TableColumns`);
    the assignments then go through :class:`_SignProducts` in chunks of
    ``_CHUNK``, one matrix product each, and Y itself is never formed.
    The (T, B) arrays are filled chunk by chunk.
    """
    table = _TableColumns.of(blocks, effects, gaps, "R2" in want or "R2P" in want)
    shape = signs.shape[:2]
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for est in want:
        # R2P is R2 with another variance, so one array holds both estimates.
        shared = est == "R2P" and "R2" in out
        out[est] = (out["R2"][0] if shared else np.empty(shape), np.empty(shape))
    for lo in range(0, signs.shape[1], _CHUNK):
        part = _SignProducts.of(table, signs[:, lo : lo + _CHUNK]).stats(want)
        for est in want:
            for whole, chunk in zip(out[est], part[est]):
                whole[:, lo : lo + _CHUNK] = chunk
    return out


def _table_stats(
    sample: PotentialOutcomeSample,
    signs: np.ndarray,
    f: Optional[TransformSpec],
    g: Optional[TransformSpec],
    want: Sequence[str],
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """:func:`_grid_stats` for one table and its (B, n) ``signs``, as (B,) arrays.

    The table is a stack of one, whose blocks, when a regression estimator
    is wanted, come from ``x[None]`` as a study slab builds them.
    """
    effects, gaps = _effects_and_gaps(sample.r_t[None], sample.r_c[None])
    blocks = None
    if any(est != "C" for est in want):
        ident = TransformSpec.identity()
        blocks = transformed_blocks(sample.x[None], f or ident, g or ident)
    stats = _grid_stats(effects, gaps, signs[None], blocks, want)
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

    The estimators are those :func:`design_estimators` allows, the mean
    alone when no transform is given. Raises TooLarge beyond the cap
    (default 16 pairs, 65536 assignments), then what the rule raises,
    and RankDeficient when any assignment gives a singular design.
    """
    n = sample.n
    if n > cap:
        raise TooLarge(f"2^{n} assignments exceed the cap of 2^{cap}")
    want = design_estimators(n, sample.p, f, g)
    stats = _table_stats(sample, assignment_signs(np.arange(2**n), n), f, g, want)
    bad = ~np.isfinite(stats[want[-1]][0])
    if want != ("C",) and bad.any():
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
    rather than aborting the run. Raises what :func:`design_estimators`
    raises, ConfigError for a regression estimator without transforms
    and WrongEstimator for one the rule does not allow.
    """
    if b < 1:
        raise ConfigError(f"need b >= 1, got {b}")
    est_ids = tuple(estimators)
    for est in est_ids:
        if est not in ESTIMATOR_IDS:
            raise WrongEstimator(f"unknown estimator {est!r}")
    if rng is None:
        rng = np.random.default_rng()
    allowed = design_estimators(sample.n, sample.p, f, g)
    if any(est not in allowed for est in est_ids):
        if allowed == ("C",):
            raise ConfigError("regression estimators need transforms")
        raise WrongEstimator("superpopulation-corrected variance needs at least one m column")
    stats = _table_stats(sample, randomize(sample.n, rng, b), f, g, est_ids)
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
        want = design_estimators(config.n, N_COVARIATES, config.f, config.g)
    except DimensionMismatch as exc:
        raise ConfigError(f"transform does not fit the generated covariates: {exc}") from None
    if config.mode == "pate" and "R2P" not in want:
        raise ConfigError("superpopulation correction needs at least one m column")
    if config.mode == "pate" and config.samples < 2:
        raise ConfigError(
            f"pate mode needs samples >= 2, got {config.samples}: its metrics divide "
            "by the standard deviation of the estimates across samples"
        )
    return config


class _StudyStreams:
    """The sample and assignment streams of a block of sample indices, read in order.

    Index i draws its table's normals from ``substream(seed, ROLE_SAMPLE,
    i)`` and its B = ``config.randomizations`` assignments from
    ``substream(seed, ROLE_ASSIGN, i)``. Each role is read on from the
    first index it has not read yet, so a study reads the normals of a
    slab's tables at once and then their signs one kernel call at a
    time. Row t of the normals is what :func:`generate_sample` draws
    from the same stream, drawn in place. The signs are read as
    ceil(B*n/2) raw words per index and decoded for the whole call by
    :func:`_signs_of_words`, bit for bit what ``randomize(n,
    substream(seed, ROLE_ASSIGN, i), B)`` draws. The streams are read
    through :func:`substreams`, which draws what those ``substream``
    calls draw. Each role is opened once for the whole block, so its
    keys are hashed in one pass whatever the slab and call sizes.
    """

    def __init__(self, config: StudyConfig, idxs: Sequence[int]) -> None:
        self._n, self._b = config.n, config.randomizations
        self._sample = substreams(config.seed, ROLE_SAMPLE, idxs)
        self._assign = substreams(config.seed, ROLE_ASSIGN, idxs)

    def normals(self, count: int) -> np.ndarray:
        """The (count, 10n) normals of the next ``count`` indices."""
        out = np.empty((count, 10 * self._n))
        for j, rng in enumerate(islice(self._sample, count)):
            rng.standard_normal(out=out[j])
        return out

    def signs(self, count: int) -> np.ndarray:
        """The (count, B, n) signs of the next ``count`` indices."""
        words = (self._b * self._n + 1) // 2
        raw = np.empty((count, words), dtype=np.uint64)
        for j, rng in enumerate(islice(self._assign, count)):
            raw[j] = rng.bit_generator.random_raw(words)
        return _signs_of_words(raw, self._b, self._n)


def _split(count: int, parts: int) -> list[range]:
    """``range(count)`` cut into ``parts`` contiguous ranges whose lengths differ by at most one."""
    return [range(count * k // parts, count * (k + 1) // parts) for k in range(parts)]


def _part_size(count: int, most: int) -> int:
    """The part size when ``count`` is cut into the fewest parts of at most ``most``.

    All parts but the last have this size.
    """
    parts = -(-count // most)
    return -(-count // parts)


def _slab_size(config: StudyConfig, tables: int) -> int:
    """Tables per slab for a block of ``tables`` tables.

    The fewest slabs of at most ``_STUDY_PAIRS`` pairs (at least one
    table each), all but the last of this size: 50 tables at n = 100 in
    a block of 100, and 250 at n = 25 in a block of 2000.
    """
    return _part_size(tables, max(1, _STUDY_PAIRS // config.n))


def _call_size(config: StudyConfig, tables: int) -> int:
    """Tables per kernel call for a block of ``tables`` tables.

    Each slab of :func:`_slab_size` tables is cut into the fewest calls
    of at most ``_STUDY_DRAWS`` draws (at least one table each), all but
    the last of this size: 4 tables at B = 200, and 250 at B = 1 and
    n = 25 in a block of 2000, where each slab is one call. Given a
    slab's own size, this is the call size within it.
    """
    most = max(1, _STUDY_DRAWS // config.randomizations)
    return _part_size(_slab_size(config, tables), most)


def _concat(parts: Sequence[Mapping[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Metric columns of consecutive blocks, joined in order."""
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


@dataclass(frozen=True)
class _Slab:
    """What the kernel calls of a slab of study tables share, built once.

    Table j is sample ``idxs[j]`` of the study ``config``. ``blocks``
    are the tables' whitened d and m blocks and ``effects`` and
    ``gaps`` (T, n) their Delta and l_i1 - l_i2
    (:func:`_effects_and_gaps`). A pate study also keeps ``centered``
    (T,), whether each table's m columns pass :func:`columns_centered`;
    a sate study does not. The covariates, the potential outcomes and
    the blocks themselves are not kept, so they are freed before the
    first kernel call.
    """

    config: StudyConfig
    idxs: Sequence[int]
    blocks: _Whitened
    effects: np.ndarray
    gaps: np.ndarray
    centered: Optional[np.ndarray] = None

    @classmethod
    def of(
        cls,
        config: StudyConfig,
        idxs: Sequence[int],
        r_t: np.ndarray,
        r_c: np.ndarray,
        x: np.ndarray,
    ) -> "_Slab":
        """The slab of tables with outcomes ``r_t``, ``r_c`` and covariates ``x`` (T, n, 2, 4).

        Raises NonFiniteTransform when a transform is not finite on the
        stack.
        """
        d, m = transformed_blocks(x, config.f, config.g)
        effects, gaps = _effects_and_gaps(r_t, r_c)
        blocks = _Whitened.of(d, m)
        if config.mode == "sate":
            return cls(config, idxs, blocks, effects, gaps)
        return cls(config, idxs, blocks, effects, gaps, columns_centered(m))


def _slabs(
    config: StudyConfig, idxs: Sequence[int], r_t: np.ndarray, r_c: np.ndarray, x: np.ndarray
) -> Iterator[_Slab]:
    """The slab of sample indices ``idxs``, whose tables are given as in :meth:`_Slab.of`.

    Yields one slab, and drops the covariates once it is built. When
    the stack's transforms are not finite, it yields one slab per table
    instead, each built only when the caller asks for it, so the first
    failing table raises what it raises alone: which transform fails
    first may differ between it and the stack, and in a population
    study an earlier table may fail another check in its kernel call.
    """
    try:
        slab = _Slab.of(config, idxs, r_t, r_c, x)
    except NonFiniteTransform:
        if len(idxs) == 1:
            raise
    else:
        del r_t, r_c, x
        yield slab
        return
    for j in range(len(idxs)):
        one = slice(j, j + 1)
        yield _Slab.of(config, idxs[one], r_t[one], r_c[one], x[one])


def _study_block(args: tuple[StudyConfig, Sequence[int]]) -> dict[str, np.ndarray]:
    """Metric columns of sample indices ``idxs``, in order.

    Each index's table and B assignments come from its own substreams
    (see :class:`_StudyStreams`), so a value does not depend on the
    block it is computed in. The indices are cut into slabs of
    :func:`_slab_size` tables. A slab's tables are built as stacked
    arrays, bit for bit the tables :func:`generate_sample` draws from
    the same streams; the normals are dropped then, and the slab is
    built once (:func:`_slabs`). Its tables meet their signs in kernel
    calls of :func:`_call_size` tables, through :func:`_sate_columns` or
    :func:`_pate_columns` by ``config.mode``.
    """
    config, idxs = args
    streams = _StudyStreams(config, idxs)
    step = _sate_columns if config.mode == "sate" else _pate_columns
    per_slab = _slab_size(config, len(idxs))
    parts = []
    for lo in range(0, len(idxs), per_slab):
        part = idxs[lo : lo + per_slab]
        # Only the generator holds the tables, so that it can drop them.
        slabs = _slabs(
            config, part, *_stacked_tables(streams.normals(len(part)), config.setting)[1:]
        )
        for slab in slabs:
            per_call = _call_size(config, len(slab.idxs))
            for c in range(0, len(slab.idxs), per_call):
                rows = slice(c, c + per_call)
                parts.append(step(slab, rows, streams.signs(len(slab.idxs[rows]))))
    return _concat(parts)


def _sate_columns(slab: _Slab, rows: slice, signs: np.ndarray) -> dict[str, np.ndarray]:
    """In-sample metrics of the slab's tables ``rows`` over their B draws: one kernel call.

    The tables meet their (T, B, n) ``signs`` together in
    :func:`_sign_stats`, and each estimator's (T, B) grid is summarized
    in one call against each table's own average effect. Singular draws
    are left out of the summaries.
    """
    effects = slab.effects[rows]
    stats = _sign_stats(slab.blocks[rows], effects, slab.gaps[rows], signs, ("C", "R1", "R2"))
    sates = effects.mean(axis=-1)
    c, r1, r2 = (_summarize(tau, s2, sates, slab.config.alpha) for tau, s2 in stats.values())
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


def _pate_columns(slab: _Slab, rows: slice, signs: np.ndarray) -> dict[str, np.ndarray]:
    """Estimates and standard errors of the slab's tables ``rows``, one draw each: one kernel call.

    Every estimate, the mean's too, comes from :func:`_sign_stats` on
    the effects and gaps under the (T, 1, n) ``signs``; Y is never
    formed. The first table in order that fails raises, and its first
    failing check picks the error: DimensionMismatch when its m columns
    fail :func:`columns_centered` (the test :class:`DesignMatrices`
    applies), and RankDeficient, naming the sample, when its R1 or R2P
    fit is singular under the kernel's pivot tests, the same rank
    decision as in the other modes.
    """
    effects, gaps = slab.effects[rows], slab.gaps[rows]
    stats = {
        est: (tau[:, 0], s2[:, 0])
        for est, (tau, s2) in _sign_stats(
            slab.blocks[rows], effects, gaps, signs, ("C", "R1", "R2", "R2P")
        ).items()
    }
    centered = slab.centered[rows]
    full_rank = np.isfinite(stats["R1"][1]) & np.isfinite(stats["R2P"][1])
    bad = np.flatnonzero(~(centered & full_rank))
    if bad.size:
        j = bad[0]
        if not centered[j]:
            raise DimensionMismatch("m columns must sum to zero across pairs")
        raise RankDeficient(f"sample {slab.idxs[rows][j]}: the regression design is rank deficient")
    return {
        "tau_C": stats["C"][0],
        "se_C": np.sqrt(stats["C"][1]),
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
    aggregated in index order. The indices are cut into one contiguous,
    near-equal share per worker (fewer when S is smaller). The calling
    process is one of the workers: it starts a pool for shares 2..k
    first, then computes share 1 itself, so ``workers=k`` starts k - 1
    processes. Shares are read back in order, so a failing study raises
    what one worker would raise, for the first failing sample; the pool
    has ended when this returns or raises.
    """
    config = _validate_config(config)
    if config.mode == "pate":
        config = replace(config, randomizations=1)
    first, *rest = (
        (config, share) for share in _split(config.samples, min(config.workers, config.samples))
    )
    if not rest:
        columns = _study_block(first)
    else:
        with concurrent.futures.ProcessPoolExecutor(len(rest)) as pool:
            futures = [pool.submit(_study_block, task) for task in rest]
            columns = _concat([_study_block(first), *(f.result() for f in futures)])

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
    Raises what :func:`design_estimators` raises for the design, and
    RankDeficient when [1 | signs*d | m] is rank deficient, as
    when the ones vector lies in the span of [signs*d | m].
    """
    if reps < 1:
        raise ValueError(f"need reps >= 1, got {reps}")
    design_estimators(sample.n, sample.p, f, g)
    if signs is None and rng is None:
        rng = np.random.default_rng()
    d, m = transformed_blocks(sample.x, f, g)
    n = sample.n
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
    zeros = np.zeros((1, n))
    prods = _SignProducts.of(
        _TableColumns.of(_Whitened.of(d[None], m[None]), zeros, zeros, True), v[None]
    )
    denom = prods.r2(corrected=False)[2][0]
    bad = ~np.isfinite(denom)
    if bad.any():
        raise RankDeficient(
            f"{int(bad.sum())} of {reps} assignments give a singular design "
            f"(first repetition {int(np.flatnonzero(bad)[0])})"
        )
    resid = np.abs(denom / n - 1.0)
    return LemmaDiagnostics(n=n, reps=reps, off_block=off, ones_residual=resid)
