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
(:class:`_TableColumns`). The products of those columns with a chunk
of signs, which the caller supplies as a callable (:data:`Times`)
writing into an array the kernel gives it, are everything that depends
on the assignment (:class:`_SignProducts`). Signs -v give the same
design as v and the response Delta - v*g, so every product at -v is the
one at v negated: asked for twins, the kernel fits -v beside each v as
a second response on the same design, from the same products and one
factorization, and writes it to the mirrored column of its outputs
(column 2B - 1 - j for draw j), which is how an enumeration fills all
2^n codes from the 2^(n-1) codes below 2^(n-1). A pass holds at most
``CHUNK`` fits, twins counted. A call allocates one workspace
(:class:`_Workspace`) for its outputs and its largest pass, and every
grid-sized array of every pass is a view of it.
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

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

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
# The kernel's grid budget: the fits one pass of sign_stats makes in
# all, over at least one table, so the draws it takes, and the widest
# product of one table's columns with its signs. A pass that fits each
# draw's twin too takes half as many draws. A table whose draws are cut
# into chunks may get other last bits than uncut, as BLAS may round a
# product differently by its width, so every mode without twins cuts a
# table's draws at the same multiples of it; the one mode with twins,
# enumeration, sums half tables, whose products do not depend on the
# width. Readers outside this module read it as ``kernel.CHUNK``, so
# this is its one binding.
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


class _Workspace:
    """The one buffer of a kernel call: its outputs, then every array of its passes.

    :func:`sign_stats` sizes it once, for its outputs and its largest
    pass (:meth:`_SignProducts.planes`), and takes the outputs first.
    Every pass then takes its arrays from the mark after them again,
    each a C-contiguous view, in the order the arithmetic needs them,
    and what lives only inside a step is given back when the step ends
    (:meth:`release`). So a call allocates once, not once per array per
    pass. glibc maps the first such block with mmap; freeing it raises
    its mmap threshold to the block's size and its trim threshold to
    twice that (``mallopt(3)``), so later calls take the block from the
    heap, which keeps its pages between calls while what else an
    operation allocates stays smaller than the block. The many
    pass-sized arrays this replaces were given back to the system after
    a pass and faulted in again on the next. The buffer starts on a
    64-byte cache line, where malloc promises 16 bytes, so every array
    whose offset is a multiple of eight floats, as every grid of an
    enumeration pass is, starts on one too. No vector load is then split
    across two lines: an n = 16 enumeration took 16-18 ms, against
    20-21 ms from a buffer 48 bytes past a line, on one core of a
    2-vCPU AVX-512 host.
    """

    def __init__(self, size: int) -> None:
        raw = np.empty(size + 7)
        skip = -raw.ctypes.data % 64 // 8
        self._buf = raw[skip : skip + size]
        self.mark = 0

    def release(self, mark: int) -> None:
        """Give back everything taken since ``mark`` was read."""
        self.mark = mark

    def take(self, shape: tuple[int, ...], dtype: type = float) -> np.ndarray:
        """The next free ``shape`` array; a bool array uses whole float slots."""
        count = math.prod(shape)
        at, end = self.mark, self.mark + (count if dtype is float else -(-count // 8))
        if end > len(self._buf):
            raise RuntimeError(f"kernel workspace of {len(self._buf)} floats is too small")
        self.mark = end
        if dtype is float:
            return self._buf[at:end].reshape(shape)
        return self._buf[at:end].view(dtype)[:count].reshape(shape)


def _eliminate(g: np.ndarray, k: int, floor: np.ndarray, ok: np.ndarray, ws: _Workspace) -> None:
    """Eliminate the first ``k`` columns of symmetric matrices ``g`` in place.

    ``g`` is (K, K, ...): one K-by-K matrix per index of the trailing
    grid axes, which come last so that every step works on whole
    grid-length vectors. This is symmetric Gaussian elimination without
    pivoting (an LDL' factorization); afterwards the trailing block of
    ``g`` holds the Schur complement of the leading k-by-k block, and
    the first k columns below the diagonal hold the multipliers, the
    below-diagonal entries of the unit lower factor. Writes into ``ok``
    whether every pivot j exceeded ``floor[j]``. A pivot that does not
    gets zero multipliers, so the matrices stay finite. Its temporaries
    come from ``ws`` and go back to it.
    """
    mark = ws.mark
    grid = g.shape[2:]
    good = ws.take(grid, bool)
    pivots = ws.take(grid)
    update = ws.take(((len(g) - 1) ** 2,) + grid)
    ok.fill(True)
    for j in range(k):
        piv = g[j, j]
        np.greater(piv, floor[j], out=good)
        ok &= good
        pivots.fill(np.inf)
        np.copyto(pivots, piv, where=good)
        g[j + 1 :, j] /= pivots
        rest = len(g) - j - 1
        prod = update[: rest * rest].reshape((rest, rest) + grid)
        g[j + 1 :, j + 1 :] -= np.multiply(g[j + 1 :, j, None], g[j, None, j + 1 :], out=prod)
    ws.release(mark)


def _dot(
    a: np.ndarray, b: np.ndarray, ws: _Workspace, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Sum of a[i] * b[i] over the leading axis, term by term in order, in ``ws``.

    numpy's own reductions may group the terms differently when the
    grid has one point, so a fixed order keeps every fit's value
    independent of the grid it is computed in. The sum is written into
    ``out`` or, when None, into an array that stays taken from ``ws``;
    its term array is given back.
    """
    if out is None:
        out = ws.take(np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    mark = ws.mark
    term = ws.take(out.shape)
    out.fill(0.0)
    for ai, bi in zip(a, b):
        out += np.multiply(ai, bi, out=term)
    ws.release(mark)
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
    the products of v*dw (K_D rows), the ones vector and each response
    with w. All come from one product of the table's fixed columns with
    the signs (see :data:`Times`), and all are views of the pass's
    workspace ``ws``, as is every array the fits compute from them.
    There are R = 1 or 2 responses. The second is the twin: the fit at
    -v, whose design [1 | v*d | m] is the same and whose response is
    Dc - v*g, so its pieces are those of v with the products of v
    negated. Its v*dw columns are taken with their sign flipped, so
    that ``s`` and the v*dw rows of ``proj`` serve both; that moves no
    intercept and negates every product of one such column exactly.
    Component axes come first and the grid axes (T, B) last: ``s`` is
    (K_D, T, B), ``t`` (K_D, R, T, B), ``ysum`` and ``yty`` (R, T, B)
    and ``proj`` (K_D + 1 + R, K_M, T, B). ``mean`` (T, 1) is added
    back to every intercept.
    """

    blocks: Whitened
    n: int
    mean: np.ndarray
    s: np.ndarray
    t: np.ndarray
    ysum: np.ndarray
    yty: np.ndarray
    proj: Optional[np.ndarray]
    ws: _Workspace

    @staticmethod
    def planes(kd: int, km: int, want: Sequence[str], responses: int = 1) -> int:
        """The most (T, B) grids of values a pass holds at once: its workspace, in grids.

        For K_D = ``kd`` and K_M = ``km`` columns, the estimators
        ``want`` and R = ``responses``: the fields of :meth:`of`, then
        the largest of the products and the fits' own arrays, which each
        gives back before the next. A bool grid is counted as a whole
        grid, though it takes an eighth of one.
        """
        r = responses
        with_m = "R2" in want or "R2P" in want
        km = km if with_m else 0
        size = kd + 1 + r  # the bordered Gram of [v*dw | 1 | each response]
        held = kd + r * kd + 2 * r + size * km
        fits = [(kd + 1) * (2 + km), r if "C" in want else 0, 2 + 4 * r if "R1" in want else 0]
        if with_m:
            # The bordered Gram, ok and bad, then the largest of: the
            # products subtracted for each w column, the elimination
            # (good, the pivots and the Schur update) and what follows
            # it (the intercepts and SSEs and, with R2P, the
            # corrections, the coefficients and the sums).
            sums = max(2, 2 * km, km + 1)
            after = r * (3 + kd + 1 + sums) if "R2P" in want else 2 * r
            scratch = max(kd * size, (1 + r) ** 2)
            fits.append(size**2 + 2 + max(scratch, 2 + (size - 1) ** 2, after))
        return held + max(fits)

    @classmethod
    def of(cls, table: _TableColumns, times: Times, rows: slice, part: slice,
           ws: _Workspace, responses: int = 1) -> "_SignProducts":
        """The fits' pieces from the products of the table's columns with the signs ``part``.

        The pieces are taken from ``ws`` first, then the (T, P, B)
        products, which ``times`` writes for the tables ``rows``; the
        products are given back once the pieces are read off them. With
        two ``responses`` the twin's pieces come from the same products
        x by exact negation: t = x - dw'g, 1'y = 1'Dc - x,
        y'y = Dc'Dc + g'g - 2x and w'y = w'Dc - x, each for its x.
        """
        t, p, n = table.columns.shape
        b = part.stop - part.start
        kd = table.blocks.dw.shape[1]
        r = responses
        s, tt = ws.take((kd, t, b)), ws.take((kd, r, t, b))
        ysum, yty = ws.take((r, t, b)), ws.take((r, t, b))
        proj = ws.take((kd + 1 + r, p // (kd + 1) - 2, t, b)) if table.with_m else None
        mark = ws.mark
        products = ws.take((t, p, b))
        times(table.columns, rows, part, products)
        # (T, P, B) -> (K_D + 1, R, T, B): row l of L by row r of R.
        x = products.reshape(t, kd + 1, -1, b).transpose(1, 2, 0, 3)
        if proj is not None:
            proj[:kd] = x[:kd, 2:]
            proj[kd] = table.w_sum
            np.add(table.w_centered, x[kd, 2:], out=proj[kd + 1])
        np.copyto(s, x[:kd, 0])
        np.add(x[:kd, 1], table.dw_gaps, out=tt[:, 0])
        np.add(table.dc_sum, x[kd, 0], out=ysum[0])
        np.multiply(2.0, x[kd, 1], out=yty[0])
        np.add(table.squares, yty[0], out=yty[0])
        if r == 2:
            if proj is not None:
                np.subtract(table.w_centered, x[kd, 2:], out=proj[kd + 2])
            np.subtract(x[:kd, 1], table.dw_gaps, out=tt[:, 1])
            np.subtract(table.dc_sum, x[kd, 0], out=ysum[1])
            np.multiply(2.0, x[kd, 1], out=yty[1])
            np.subtract(table.squares, yty[1], out=yty[1])
        ws.release(mark)
        return cls(table.blocks, n, table.mean, s, tt, ysum, yty, proj, ws)

    def classical(self, outs: Sequence[tuple[np.ndarray, np.ndarray]]) -> None:
        """tau_hat and S^2 of the plain mean, in closed form, written into ``outs``.

        ``outs`` holds one (tau, s2) pair of (T, B) arrays per response.
        tau_hat is ``mean`` + 1'y / n, and S^2 n (n-1) is
        y'y - (1'y)^2 / n, clamped at 0 like the SSE. The centering
        leaves y'y of the size of the spread of Y, not of its mean, so
        the difference does not cancel away the digits of S^2.
        """
        n, mark = self.n, self.ws.mark
        spread = np.multiply(self.ysum, self.ysum, out=self.ws.take(self.ysum.shape))
        spread /= n
        np.subtract(self.yty, spread, out=spread)
        np.maximum(spread, 0.0, out=spread)
        for part, ysum, (tau, s2) in zip(spread, self.ysum, outs):
            np.divide(part, n * (n - 1), out=s2)
            np.divide(ysum, n, out=tau)
            np.add(self.mean, tau, out=tau)
        self.ws.release(mark)

    def r1(self, outs: Sequence[tuple[np.ndarray, np.ndarray]]) -> None:
        """Intercept and classical variance of y on [1 | v*d], written into ``outs``.

        ``outs`` holds one (tau, s2) pair of (T, B) arrays per response.
        With v*dw orthonormal, partialling it out leaves
        e'(I-H)e = n - s's, which the responses share, and
        e'(I-H)y = 1'y - s't, so no solve is needed. Rows whose
        denominator is at most RANK_RTOL * n, or whose table failed the
        pivot test on d, are left as they are.
        """
        ws, n, k1 = self.ws, self.n, 1 + self.s.shape[0]
        mark = ws.mark
        denom = _dot(self.s, self.s, ws)
        np.subtract(n, denom, out=denom)
        ok = np.greater(denom, RANK_RTOL * n, out=ws.take(denom.shape, bool))
        np.logical_and(self.blocks.ok_d[:, None], ok, out=ok)
        bad = ws.mark
        np.copyto(denom, 1.0, where=np.logical_not(ok, out=ws.take(ok.shape, bool)))
        ws.release(bad)
        num = _dot(self.s[:, None], self.t, ws)
        np.subtract(self.ysum, num, out=num)
        beta = np.divide(num, denom, out=ws.take(num.shape))
        sse = _dot(self.t, self.t, ws)
        np.subtract(self.yty, sse, out=sse)
        sse -= np.multiply(beta, num, out=num)
        np.maximum(sse, 0.0, out=sse)
        sse /= n - k1
        for b, e, (tau, s2) in zip(beta, sse, outs):
            np.add(self.mean, b, out=tau, where=ok)
            np.divide(e, denom, out=s2, where=ok)
        ws.release(mark)

    def r2(
        self, corrected: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Intercept fits of each response on [1 | v*d | m] through the Schur complement.

        Partialling out the orthonormal w leaves the Gram of
        [v*dw | 1 | y_1 .. y_R] minus its products with w. Each w
        column's products are subtracted in turn, in place, from the
        v*dw rows and from the [1 | y] corner, and the v*dw rows' corner
        columns are then mirrored below, so the largest temporary is
        K_D by K_D + 1 + R per grid point, not a whole Gram; every block
        stays exactly symmetric, since a_i a_j = a_j a_i. Eliminating
        the v*dw columns of that bordered matrix, once for every
        response, leaves for the ones vector and response i
        [[e'(I-H)e, e'(I-H)y_i], [., y_i'(I-H)y_i]] with H the
        projection onto [v*d | m] (FWL): its first pivot is the
        denominator e'(I-H)e, the intercept is the ratio along its first
        row, and what is left of y_i'(I-H)y_i after that pivot is the
        SSE. Each entry is computed from its own row and column only, so
        the responses' products with each other, which start at zero,
        change nothing. Each pivot must exceed RANK_RTOL times its
        column's squared norm before partialling out (one for a whitened
        column, n for the ones vector). Returns ``ok``, whether a row
        passed every pivot test and its table the pivot tests on d and
        m, then per response (R, T, B) the intercept less ``mean`` and
        the SSE, the denominator (1 where not ``ok``) and, if
        ``corrected``, per response beta_m' (m'm) beta_m, which is the
        squared norm of the w coefficients (else None). All are views of
        ``ws``, which the caller gives back; rows not ``ok`` hold values
        that mean nothing.
        """
        ws, kd, grid = self.ws, self.s.shape[0], self.ysum.shape[1:]
        r = len(self.ysum)
        g = ws.take((kd + 1 + r, kd + 1 + r) + grid)
        # The responses' diagonal of g, (R, T, B).
        yy = np.moveaxis(np.diagonal(g[kd + 1 :, kd + 1 :]), -1, 0)
        g[:kd, :kd] = np.eye(kd)[:, :, None, None]
        g[kd, kd] = self.n
        g[kd + 1 :, kd + 1 :] = 0.0
        for i in range(r):
            g[kd + 1 + i, kd + 1 + i] = self.yty[i]
        g[:kd, kd] = self.s
        g[:kd, kd + 1 :] = self.t
        g[kd, kd + 1 :] = g[kd + 1 :, kd] = self.ysum
        ok, bad = ws.take(grid, bool), ws.take(grid, bool)
        mark = ws.mark
        scratch = ws.take((max(kd * (kd + 1 + r), (1 + r) ** 2),) + grid)
        rows = scratch[: kd * (kd + 1 + r)].reshape((kd, kd + 1 + r) + grid)
        corner = scratch[: (1 + r) ** 2].reshape((1 + r, 1 + r) + grid)
        for k in range(self.proj.shape[1]):
            a = self.proj[:, k]
            g[:kd] -= np.multiply(a[:kd, None], a[None], out=rows)
            g[kd:, kd:] -= np.multiply(a[kd:, None], a[None, kd:], out=corner)
        ws.release(mark)
        g[kd:, :kd] = g[:kd, kd:].swapaxes(0, 1)
        floor = RANK_RTOL * np.append(np.ones(kd), self.n)
        _eliminate(g, kd, floor, ok, ws)
        denom = g[kd, kd]
        ok &= np.greater(denom, floor[kd], out=bad)
        ok &= (self.blocks.ok_d & self.blocks.ok_m)[:, None]
        np.copyto(denom, 1.0, where=np.logical_not(ok, out=bad))
        beta0 = np.divide(g[kd, kd + 1 :], denom, out=ws.take((r,) + grid))
        sse = np.multiply(beta0, g[kd, kd + 1 :], out=ws.take((r,) + grid))
        np.subtract(yy, sse, out=sse)
        np.maximum(sse, 0.0, out=sse)
        corr = None
        if corrected:
            # Back-substitute for the v*dw coefficients (the intercept
            # comes last) through the multipliers below g's diagonal;
            # the w coefficients are then w'y minus the part of it the
            # other columns fit.
            corr = ws.take((r,) + grid)
            mark = ws.mark
            beta = ws.take((kd + 1, r) + grid)
            beta[kd] = beta0
            for j in reversed(range(kd)):
                inner = ws.mark
                np.subtract(g[kd + 1 :, j], _dot(g[j + 1 : kd + 1, j, None], beta[j + 1 :], ws),
                            out=beta[j])
                ws.release(inner)
            gamma = _dot(beta[:, None], self.proj[: kd + 1, :, None], ws)
            np.subtract(self.proj[kd + 1 :].swapaxes(0, 1), gamma, out=gamma)
            _dot(gamma, gamma, ws, out=corr)
            ws.release(mark)
        return ok, beta0, sse, denom, corr

    def stats(
        self, want: Sequence[str], out: Mapping[str, Sequence[tuple[np.ndarray, np.ndarray]]]
    ) -> None:
        """Write (tau_hat, s2) of the estimators ``want`` into ``out``'s (T, B) arrays.

        ``out`` holds, per estimator, one (tau_hat, s2) pair per
        response. The classical variance of a regression is SSE/dof
        times the intercept entry 1 / e'(I-H)e of the inverse Gram; R2P
        adds beta_m' (m'm) beta_m / ((n-1) n) to the R2 variance, and
        its estimate is R2's. A singular fit leaves its entries of
        ``out`` untouched, so the caller fills them with NaN beforehand.
        """
        n = self.n
        if "C" in want:
            self.classical(out["C"])
        if "R1" in want:
            self.r1(out["R1"])
        if "R2" in want or "R2P" in want:
            mark = self.ws.mark
            k2 = 1 + self.s.shape[0] + self.blocks.w.shape[1]
            ok, beta0, sse, denom, corr = self.r2("R2P" in want)
            sse /= n - k2
            if "R2P" in want:
                corr /= (n - 1) * n
            spare = None if "R2" in want else self.ws.take(denom.shape)
            for i in range(len(beta0)):
                tau, s2 = out["R2"][i] if spare is None else (out["R2P"][i][0], spare)
                np.add(self.mean, beta0[i], out=tau, where=ok)
                np.divide(sse[i], denom, out=s2, where=ok)
                if "R2P" in want:
                    np.add(s2, corr[i], out=out["R2P"][i][1], where=ok)
            self.ws.release(mark)


# The sign products of T tables: given the fixed columns (T', P, n)
# (:class:`_TableColumns`) of their tables ``rows``, a slice ``part``
# of those tables' B draws and a (T', P, len(part)) array ``out``,
# write into ``out`` the products of the columns with those draws'
# signs. :func:`sign_stats` asks for its tables in order, each pass's
# first part before its others, and ``out`` is always a C-contiguous
# view of the call's one workspace (:class:`_Workspace`), so a Times
# allocates nothing per pass for its result.
Times = Callable[[np.ndarray, slice, slice, np.ndarray], None]


def times_of(signs: np.ndarray) -> Times:
    """The sign products of T tables whose B signs are the (T, B, n) array ``signs``."""

    def times(columns: np.ndarray, rows: slice, part: slice, out: np.ndarray) -> None:
        np.matmul(columns, signs[rows, part].swapaxes(-1, -2), out=out)

    return times


def sign_stats(
    blocks: Whitened,
    effects: np.ndarray,
    gaps: np.ndarray,
    times: Times,
    b: int,
    want: Sequence[str],
    *,
    twins: bool = False,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-assignment (tau_hat, s2) of the estimators ``want`` for T tables: the kernel's entry.

    ``blocks`` are the tables' whitened d and m blocks, of zero columns
    when only "C" is wanted; ``effects`` and ``gaps`` (T, n) come from
    :func:`effects_and_gaps`, and ``times`` gives the products of the
    tables' columns with their ``b`` signs each. With ``twins``, each
    sign vector v_j is also fitted at -v_j, as a second response on the
    same design (:class:`_SignProducts`), so a call fits 2b assignments
    from b products; column j of the (T, 2b) outputs holds v_j and
    column 2b - 1 - j holds -v_j. An enumeration asks this for the codes
    below 2^(n-1): code 2^n - 1 - c has the signs of code c negated, so
    column j holds code j. Each table's fixed columns are built once
    (:class:`_TableColumns`). The grid is then cut into passes of whole
    tables in order: the fewest passes of at most ``CHUNK`` fits in all
    (at least one table), all but the last of
    ceil(T / ceil(T / max(1, D // b))) tables, the smallest size that
    count of passes can have, where D = ``CHUNK`` draws, or
    ``CHUNK // 2`` with their twins (at least one). A pass takes one
    product per part of its draws, cut at multiples of D, so only a
    lone table whose b exceeds D has more than one; each part goes
    through :class:`_SignProducts`, and Y itself is never formed. The
    call allocates one workspace (:class:`_Workspace`), sized for its
    outputs and its first and largest part; the outputs are its first
    arrays, and every part writes its products, its pieces and every
    temporary of its fits into views of it, and its results straight
    into the outputs. Returns (T, b) arrays, or (T, 2b) with ``twins``,
    each table's values bit for bit those it gets alone; singular fits
    are NaN. R2 and R2P share their estimate array, and every array
    keeps the workspace alive.
    """
    table = _TableColumns.of(blocks, effects, gaps, "R2" in want or "R2P" in want)
    t, kd, km = len(effects), blocks.dw.shape[1], blocks.w.shape[1]
    responses = 2 if twins else 1
    draws = max(1, CHUNK // responses)
    regression = [est for est in want if est in ("R2", "R2P")]
    arrays = 2 * len(want) - max(0, len(regression) - 1)
    passes = -(-t // max(1, draws // b))
    per_pass = -(-t // passes)
    grid = per_pass * min(b, draws)
    planes = _SignProducts.planes(kd, km, want, responses)
    ws = _Workspace(arrays * t * responses * b + planes * grid)
    shared = ws.take((t, responses * b)) if regression else None
    out = {
        est: (shared if est in regression else ws.take((t, responses * b)),
              ws.take((t, responses * b)))
        for est in want
    }
    for arrays in out.values():
        for array in arrays:
            array.fill(np.nan)
    # Each estimator's (tau, s2) per response; column 2b - 1 - j of an
    # output is column j of its reversed view.
    fits = {est: [(tau, s2)] + ([(tau[:, ::-1], s2[:, ::-1])] if twins else [])
            for est, (tau, s2) in out.items()}
    outputs = ws.mark
    with np.errstate():
        if per_pass == 1:
            # A grid array of a one-table pass is one row of its part's
            # draws. numpy copies the operands of a broadcasting ufunc
            # into buffers when their rows are at most a third of its
            # buffer (8192 values by default), which took about three
            # times as long per value as reading the rows in place at
            # 2048 draws, so the buffer is cut to the row. Every step of
            # a pass is elementwise or a BLAS product, so no value
            # changes. Every enumeration pass is such a pass.
            width = min(b, draws)
            np.setbufsize(min(np.getbufsize(), max(16, width - width % 16)))
        for lo in range(0, t, per_pass):
            rows = slice(lo, min(lo + per_pass, t))
            tables = table[rows]
            for start in range(0, b, draws):
                part = slice(start, min(start + draws, b))
                ws.release(outputs)
                chunk = {est: [(tau[rows, part], s2[rows, part]) for tau, s2 in pairs]
                         for est, pairs in fits.items()}
                _SignProducts.of(tables, times, rows, part, ws, responses).stats(want, chunk)
    return out


def intercept_denominators(d: np.ndarray, m: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """R2's intercept denominators e'(I-H)e of one table under each of its (B, n) ``signs``.

    H projects onto [v*d | m] for signs v, and ``d`` and ``m`` are the
    table's (n, K) blocks. The denominator does not depend on the
    outcomes, so the table takes zero effects and gaps. A design that
    fails a pivot test gives NaN, as its R2 fit does. The signs are
    taken in one part, through a workspace as in :func:`sign_stats`.
    """
    zeros = np.zeros((1, d.shape[0]))
    table = _TableColumns.of(Whitened.of(d[None], m[None]), zeros, zeros, True)
    ws = _Workspace(_SignProducts.planes(d.shape[1], m.shape[1], ("R2",)) * len(signs))
    products = _SignProducts.of(table, times_of(signs[None]), slice(0, 1), slice(0, len(signs)), ws)
    ok, _, _, denom, _ = products.r2(corrected=False)
    return np.where(ok, denom, np.nan)[0]
