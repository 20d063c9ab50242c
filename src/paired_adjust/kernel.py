"""The batched intercept kernel: every fit on a grid of tables by sign vectors.

A science table fixes both potential outcomes of every unit, so a fit
depends on the assignment only through the pair signs v. The kernel
fits the plain mean and the regression design [1 | v*d | m] for T
tables by B sign vectors, through one entry point, :func:`sign_stats`.
A table enters as its pair effects Delta and level gaps g
(:func:`effects_and_gaps`), which signs v turn into Y = Delta + v*g;
Y itself is never formed. The blocks d and m do not depend on the
signs, so each table's are whitened once (:class:`Whitened`, by
``ols_core.whiten``, the package's one factorization and pivot test).
The effects are centered on their mean, which only shifts every
intercept. Since v_i^2 = 1, every sign product a fit needs is then
affine in v: a fixed part per table plus the products of v with fixed
columns, the outer product of [dw; g] and [1; centered Delta; w]
(:class:`_TableColumns`). One matrix product of those columns with a
chunk of signs, which the caller supplies as a callable (:data:`Times`),
gives everything that depends on the assignment (:class:`_SignProducts`).
The mean needs only 1'Y and Y'Y; by Frisch-Waugh-Lovell partialling-out,
R1 needs no solve either, and R2 and its superpopulation correction need
only the Schur complement of the v*d columns after m is projected out,
eliminated for every assignment at once. A fit whose table or Schur
pivots fall to RANK_RTOL times their columns' squared norms is singular
and comes back NaN. The estimates agree with the single fits of
``ols_core`` to solver precision and are tested against them.
:func:`intercept_denominators` gives R2's e'(I-H)e alone. This module
imports only numpy, ``errors`` and ``ols_core``, so any module may use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DataError
from .ols_core import RANK_RTOL, whiten

# The largest potential outcome, in magnitude, that the kernel takes:
# 2^400, about 2.6e120. The sums of squares of its effects and gaps then
# stay below 2^806 times n, and the fits and summaries multiply them by
# at most B / RANK_RTOL, so no step comes near the float range (2^1024)
# for any grid that fits in memory. A larger outcome is refused before
# any arithmetic on it (see effects_and_gaps), and so is a larger
# observed response of an experiment (``PairedExperiment``), whose single
# fits square it as the kernel does.
RESPONSE_LIMIT = 2.0**400
# The kernel's grid budget: the draws one pass of sign_stats takes in
# all, over at least one table, and the widest product of one table's
# columns with its signs. A table whose draws are cut into chunks may
# get other last bits than uncut, as BLAS may round a product
# differently by its width, so every mode cuts a table's draws at the
# same multiples of it. Readers outside this module read it as
# ``kernel.CHUNK``, so this is its one binding.
CHUNK = 4096


def effects_and_gaps(r_t: np.ndarray, r_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair effects Delta_i and level gaps l_i1 - l_i2 of (..., n, 2) outcomes.

    With these, signs v give Y_i = Delta_i + v_i (l_i1 - l_i2), the
    level/effect identity; the level l of a unit is the average of its
    two potential outcomes. Each is (..., n). Every mode's kernel starts
    here, so this is where a table whose outcomes the kernel cannot take
    is refused: DataError when one exceeds ``RESPONSE_LIMIT`` in
    magnitude, raised before anything can overflow or warn.
    """
    top = max(np.abs(r_t).max(initial=0.0), np.abs(r_c).max(initial=0.0))
    if top > RESPONSE_LIMIT:
        raise DataError(
            f"a potential outcome of magnitude {top:.6g} exceeds the largest the "
            f"randomization kernel takes, 2^400 (about {RESPONSE_LIMIT:.2g})"
        )
    ell = (r_t + r_c) / 2.0
    tau = r_t - r_c
    return (tau[..., 0] + tau[..., 1]) / 2.0, ell[..., 0] - ell[..., 1]


@dataclass(frozen=True)
class Whitened:
    """The fixed design blocks of T tables, whitened once per table.

    The rows of ``dw`` (T, K_D, n) and ``w`` (T, K_M, n) are
    orthonormal bases of the columns of d and m (see :func:`whiten`);
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
    def of(cls, d: np.ndarray, m: np.ndarray) -> "Whitened":
        dw, passed_d, _, _, _ = whiten(d)
        w, passed_m, _, _, _ = whiten(m)
        return cls(dw, passed_d.all(axis=-1), w, passed_m.all(axis=-1))

    def __getitem__(self, rows: slice) -> "Whitened":
        """The tables ``rows`` of the stack, as views."""
        return Whitened(self.dw[rows], self.ok_d[rows], self.w[rows], self.ok_m[rows])


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
    (:func:`effects_and_gaps`). The kernel fits the centered response
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

    blocks: Whitened
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
        cls, blocks: Whitened, effects: np.ndarray, gaps: np.ndarray, with_m: bool
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

    def __getitem__(self, rows: slice) -> "_TableColumns":
        """The tables ``rows`` of the stack, as views."""
        return _TableColumns(
            self.blocks[rows], self.with_m, self.mean[rows], self.columns[rows],
            self.dw_gaps[:, rows], self.w_sum[:, rows], self.w_centered[:, rows],
            self.dc_sum[rows], self.squares[rows],
        )


@dataclass(frozen=True)
class _SignProducts:
    """The assignment-dependent pieces of the intercept fits on a grid.

    For T tables by B sign vectors v, with y the centered response of
    :class:`_TableColumns` and in the coordinates of its ``blocks``:
    ``s`` = dw'v and ``t`` = dw'(v*y), the sums ``ysum`` and squared
    norms ``yty`` of y and, when the m block is needed, ``proj`` holding
    the products of v*dw (K_D rows), the ones vector and y with w. All
    come from one product of the table's fixed columns with the signs
    (see :data:`Times`). Component axes come first and the grid axes
    (T, B) last: ``s`` and
    ``t`` are (K_D, T, B) and ``proj`` is (K_D + 2, K_M, T, B).
    ``mean`` (T, 1) is added back to every intercept.
    """

    blocks: Whitened
    n: int
    mean: np.ndarray
    s: np.ndarray
    t: np.ndarray
    ysum: np.ndarray
    yty: np.ndarray
    proj: Optional[np.ndarray]

    @classmethod
    def of(cls, table: _TableColumns, products: np.ndarray) -> "_SignProducts":
        """The fits' pieces from the (T, P, B) ``products`` of the table's columns with its signs."""
        t, _, b = products.shape
        n = table.columns.shape[-1]
        kd = table.blocks.dw.shape[1]
        # (T, P, B) -> (K_D + 1, R, T, B): row l of L by row r of R.
        # Nothing keeps a view of the products once this returns.
        x = products.reshape(t, kd + 1, -1, b).transpose(1, 2, 0, 3)
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


# The sign products of T tables: given the fixed columns (T', P, n)
# (:class:`_TableColumns`) of their tables ``rows`` and a slice ``part``
# of those tables' B draws, the (T', P, len(part)) products of the
# columns with those draws' signs. :func:`sign_stats` asks for its
# tables in order, each pass's first part before its others.
Times = Callable[[np.ndarray, slice, slice], np.ndarray]


def times_of(signs: np.ndarray) -> Times:
    """The sign products of T tables whose B signs are the (T, B, n) array ``signs``."""
    return lambda columns, rows, part: columns @ signs[rows, part].swapaxes(-1, -2)


def sign_stats(
    blocks: Whitened,
    effects: np.ndarray,
    gaps: np.ndarray,
    times: Times,
    b: int,
    want: Sequence[str],
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-assignment (tau_hat, s2) of the estimators ``want`` for T tables: the kernel's entry.

    ``blocks`` are the tables' whitened d and m blocks, of zero columns
    when only "C" is wanted; ``effects`` and ``gaps`` (T, n) come from
    :func:`effects_and_gaps`, and ``times`` gives the products of the
    tables' columns with their ``b`` signs each. Each table's fixed
    columns are built once (:class:`_TableColumns`). The grid is then
    cut into passes of whole tables in order: the fewest passes of at
    most ``CHUNK`` draws in all (at least one table), all but the last
    of ceil(T / ceil(T / max(1, CHUNK // b))) tables, the smallest size
    that count of passes can have. A pass takes one product per part of
    its draws, cut at multiples of ``CHUNK``, so only a lone table whose
    b exceeds ``CHUNK`` has more than one; each part goes through
    :class:`_SignProducts`, and Y itself is never formed. Returns (T, b)
    arrays, filled pass by pass, each table's values bit for bit those
    it gets alone; singular fits are NaN.
    """
    table = _TableColumns.of(blocks, effects, gaps, "R2" in want or "R2P" in want)
    t = len(effects)
    shape = (t, b)
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for est in want:
        # R2P is R2 with another variance, so one array holds both estimates.
        shared = est == "R2P" and "R2" in out
        out[est] = (out["R2"][0] if shared else np.empty(shape), np.empty(shape))
    passes = -(-t // max(1, CHUNK // b))
    per_pass = -(-t // passes)
    for lo in range(0, t, per_pass):
        rows = slice(lo, min(lo + per_pass, t))
        tables = table[rows]
        for start in range(0, b, CHUNK):
            part = slice(start, min(start + CHUNK, b))
            stats = _SignProducts.of(tables, times(tables.columns, rows, part)).stats(want)
            for est in want:
                for whole, chunk in zip(out[est], stats[est]):
                    whole[rows, part] = chunk
    return out


def intercept_denominators(d: np.ndarray, m: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """R2's intercept denominators e'(I-H)e of one table under each of its (B, n) ``signs``.

    H projects onto [v*d | m] for signs v, and ``d`` and ``m`` are the
    table's (n, K) blocks. The denominator does not depend on the
    outcomes, so the table takes zero effects and gaps. A design that
    fails a pivot test gives NaN, as its R2 fit does.
    """
    zeros = np.zeros((1, d.shape[0]))
    table = _TableColumns.of(Whitened.of(d[None], m[None]), zeros, zeros, True)
    products = _SignProducts.of(table, times_of(signs[None])(table.columns, slice(None), slice(None)))
    return products.r2(corrected=False)[2][0]
