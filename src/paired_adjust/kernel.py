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
The three estimators are nested intercept fits: C on nothing, R1 on
v*d, R2 on v*d and m. So by Frisch-Waugh-Lovell partialling-out each is
the [1 | y] corner of one bordered Gram, read off by one function after
its columns are projected out, for every assignment at once: C from the
Gram as built, R1 once the orthonormal v*d columns are subtracted out
(no pivot), R2 and its superpopulation correction once the m columns
are eliminated too. The rank rule takes the columns in that order, v*d,
then m, then the ones vector, the order ``ols_core.least_squares``
factors [v*d | m | 1] in: a fit whose table pivots, m pivots or
intercept denominator fall to RANK_RTOL times their columns' squared
norms is singular and comes back NaN. R2 with no m columns reads R1's
corner, so the two agree bit for bit. The estimates agree with the
single fits of ``ols_core`` to solver precision and are tested against
them. :func:`intercept_denominators` gives R2's e'(I-H)e alone. This
module imports only numpy, ``errors`` and ``ols_core``, so any module
may use it.
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
    """The bordered Gram of the intercept fits on a grid, and its one read-off.

    For T tables by B sign vectors v, with y the centered response of
    :class:`_TableColumns` and in the coordinates of its ``blocks``,
    ``gram`` holds the Gram of [w | 1 | y_1 .. y_R] and ``cross``, A,
    the products of the v*dw columns with those columns. Both come from
    one product of the table's fixed columns with the signs (see
    :data:`Times`), and both are views of the pass's workspace ``ws``,
    as is every array the fits compute from them. Each estimator is
    read off the Gram's [1 | y] corner (:meth:`read_off`) once its
    columns are projected out (:meth:`stats`). There are R =
    ``responses`` = 1 or 2 responses. The second is the twin: the fit
    at -v, whose design [1 | v*d | m] is the same and whose response is
    Dc - v*g, so its products are those of v with the products of v
    negated. Its v*dw columns are taken with their sign flipped, so that
    A's v*dw rows serve both; that moves no intercept and negates every
    product of one such column exactly. The two responses' product with
    each other is never read, and holds zero. Component axes come first
    and the grid axes (T, B) last: ``gram`` is (Q, Q, T, B) and
    ``cross`` (K_D, Q, T, B), Q = K_M + 1 + R, with K_M = 0 when the
    fits need no m block. Below its diagonal ``gram`` is built only
    among the w columns and among the responses; the elimination fills
    in the rest first (:meth:`partial_out_m`). ``mean`` (T, 1) is added
    back to every intercept.
    """

    blocks: Whitened
    n: int
    mean: np.ndarray
    gram: np.ndarray
    cross: np.ndarray
    responses: int
    ws: _Workspace

    @staticmethod
    def planes(kd: int, km: int, want: Sequence[str], responses: int = 1) -> int:
        """The most (T, B) grids of values a pass holds at once: its workspace, in grids.

        For K_D = ``kd`` and K_M = ``km`` columns, the estimators
        ``want`` and R = ``responses``: ``cross`` and ``gram``, then the
        larger of the products they are read from and what :meth:`stats`
        takes, each step giving back its own arrays before the next. A
        bool grid is counted as a whole grid, though it takes an eighth
        of one.
        """
        r = responses
        with_m = "R2" in want or "R2P" in want
        km = km if with_m else 0
        q = km + 1 + r
        # ok, then the largest of: the rank-one updates of the w rows,
        # the ones row of A'A with its terms (more than a read-off takes:
        # its test, intercepts and SSEs) and, with m, the elimination
        # (good, the pivots and the Schur update) and R2's read-off, with
        # R2 variances of its own when only R2P is wanted and, for R2P,
        # the corrections, the coefficients and a term.
        steps = [km * q, 2 + 2 * r]
        if with_m:
            steps.append(2 + (q - 1) ** 2)
            steps.append(r * ("R2" not in want) + 1 + 2 * r + r * (km + 3) * ("R2P" in want))
        return kd * q + q * q + max((kd + 1) * (km + 2), 1 + max(steps))

    @classmethod
    def of(cls, table: _TableColumns, times: Times, rows: slice, part: slice,
           ws: _Workspace, responses: int = 1) -> "_SignProducts":
        """The Gram from the products of the table's columns with the signs ``part``.

        ``cross`` and ``gram`` are taken from ``ws`` first, then the
        (T, P, B) products, which ``times`` writes for the tables
        ``rows``; the products are given back once they are read. Each
        product x goes straight into its entries: (v*dw)'y = x + dw'g,
        w'y = w'Dc + x, 1'y = 1'Dc + x and y'y = Dc'Dc + g'g + 2x. The
        twin's entries come from the same x by exact negation.
        """
        t, p, n = table.columns.shape
        b = part.stop - part.start
        kd = table.blocks.dw.shape[1]
        km, r = p // (kd + 1) - 2, responses
        q = km + 1 + r
        cross, gram = ws.take((kd, q, t, b)), ws.take((q, q, t, b))
        mark = ws.mark
        products = ws.take((t, p, b))
        times(table.columns, rows, part, products)
        # (T, P, B) -> (K_D + 1, 2 + K_M, T, B): row l of L by row r of R.
        x = products.reshape(t, kd + 1, -1, b).transpose(1, 2, 0, 3)
        cross[:, :km] = x[:kd, 2:]
        np.copyto(cross[:, km], x[:kd, 0])
        gram[:km, :km] = np.eye(km)[:, :, None, None]
        gram[:km, km] = table.w_sum
        gram[km, km] = n
        gram[km + 1 :, km + 1 :] = 0.0
        # Response y = km + 1 adds each x, its twin y = km + 2 subtracts it.
        for y, add in zip(range(km + 1, q), (np.add, np.subtract)):
            add(x[:kd, 1], table.dw_gaps, out=cross[:, y])
            add(table.w_centered, x[kd, 2:], out=gram[:km, y])
            add(table.dc_sum, x[kd, 0], out=gram[km, y])
            np.multiply(2.0, x[kd, 1], out=gram[y, y])
            add(table.squares, gram[y, y], out=gram[y, y])
        ws.release(mark)
        return cls(table.blocks, n, table.mean, gram, cross, r, ws)

    def stats(
        self, want: Sequence[str], out: Mapping[str, Sequence[tuple[np.ndarray, np.ndarray]]]
    ) -> None:
        """Write (tau_hat, s2) of the estimators ``want`` into ``out``'s (T, B) arrays.

        ``out`` holds, per estimator, one (tau_hat, s2) pair per
        response. C is read off the Gram as built, R1 once the v*dw
        columns are projected out (:meth:`partial_out_dw`), and R2 and
        R2P once the w columns are too (:meth:`partial_out_m`). So an R2
        with no m columns reads R1's corner, and R2P's estimate is R2's.
        A singular fit leaves its entries of ``out`` untouched, so the
        caller fills them with NaN beforehand.
        """
        ws, kd, km = self.ws, len(self.cross), len(self.gram) - 1 - self.responses
        mark = ws.mark
        ok = ws.take(self.gram.shape[2:], bool)
        if "C" in want:
            ok.fill(True)
            self.read_off(0, ok, out["C"])
        self.partial_out_dw()
        if "R1" in want:
            np.copyto(ok, self.blocks.ok_d[:, None])
            self.read_off(kd, ok, out["R1"])
        if "R2" in want or "R2P" in want:
            self.partial_out_m(ok)
            if "R2" in want:
                fits = out["R2"]
            else:  # R2P alone: its estimate, with S^2 of R2 in arrays of the pass
                fits = [(tau, ws.take(tau.shape)) for tau, _ in out["R2P"]]
            corrected = [s2 for _, s2 in out["R2P"]] if "R2P" in want else ()
            self.read_off(kd + km, ok, fits, corrected)
        ws.release(mark)

    def partial_out_dw(self) -> None:
        """Project the v*dw columns out of the Gram by subtracting A'A, A = ``cross``.

        v*dw is orthonormal, so eliminating it from the Gram of
        [v*dw | w | 1 | y] takes no pivot and leaves the Gram of the
        other columns less A'A. The w rows take it one v*dw column at a
        time, as rank-one updates of whole rows, which keep the w block
        exactly symmetric. The [1 | y] corner's entries are each summed
        first, by :func:`_dot` in the order of the v*dw columns, and
        then subtracted; the responses' product with each other is left
        at zero.
        """
        ws, g, a = self.ws, self.gram, self.cross
        km = len(g) - 1 - self.responses
        mark = ws.mark
        rows = ws.take(g[:km].shape)
        for ak in a:
            g[:km] -= np.multiply(ak[:km, None], ak[None], out=rows)
        ws.release(mark)
        g[km, km:] -= _dot(a[:, km, None], a[:, km:], ws)
        ws.release(mark)
        squares = _dot(a[:, km + 1 :], a[:, km + 1 :], ws)
        for y, square in zip(range(km + 1, len(g)), squares):
            g[y, y] -= square
        ws.release(mark)

    def partial_out_m(self, ok: np.ndarray) -> None:
        """Eliminate the w columns from the Gram, writing into ``ok`` which rows are regular.

        The [1 | y] rows are first filled below the diagonal from the
        columns above it. Each w column is a whitened column of squared
        norm one, so its pivot must exceed RANK_RTOL
        (:func:`_eliminate`); a row is regular when each does and its
        table passed the pivot tests on d and m. The corner is then that
        of [1 | y] with [v*d | m] projected out, and the multipliers
        below the diagonal give the w coefficients.
        """
        g, km = self.gram, len(self.gram) - 1 - self.responses
        g[km + 1 :, : km + 1] = g[: km + 1, km + 1 :].swapaxes(0, 1)
        g[km, :km] = g[:km, km]
        _eliminate(g, km, np.full(km, RANK_RTOL), ok, self.ws)
        ok &= (self.blocks.ok_d & self.blocks.ok_m)[:, None]

    def read_off(
        self,
        k: int,
        ok: np.ndarray,
        fits: Sequence[tuple[np.ndarray, np.ndarray]],
        corrected: Sequence[np.ndarray] = (),
    ) -> None:
        """Write each response's intercept fit on ``k`` columns, read off the [1 | y] corner.

        With H the projection onto the columns projected out so far,
        the corner holds [[e'(I-H)e, e'(I-H)y_i], [., y_i'(I-H)y_i]]
        for each response i, so the intercept is the ratio along its
        first row and the SSE is y_i'(I-H)y_i less the intercept times
        e'(I-H)y_i, clamped at 0; S^2 is SSE / (n - 1 - k) / e'(I-H)e,
        the intercept entry of the classical covariance. A row is
        singular unless it is ``ok`` and e'(I-H)e exceeds RANK_RTOL * n,
        the squared norm of the ones vector; ``ok`` is narrowed to the
        rows that pass. tau_hat (``mean`` plus the intercept) and S^2
        go into ``fits``, one (tau, s2) pair per response, on the
        regular rows only. With ``corrected``, one array per response,
        S^2 plus ||gamma||^2 / ((n-1) n) goes there too: gamma are the
        coefficients of the eliminated w columns (:meth:`partial_out_m`),
        back-substituted through their multipliers from the intercept,
        and ||gamma||^2 is beta_m' (m'm) beta_m, R2P's correction.
        """
        ws, n, r = self.ws, self.n, self.responses
        corner = self.gram[-1 - r :, -1 - r :]
        den, num = corner[0, 0], corner[0, 1:]
        mark = ws.mark
        ok &= np.greater(den, RANK_RTOL * n, out=ws.take(den.shape, bool))
        beta = ws.take(num.shape)
        beta.fill(0.0)
        np.divide(num, den, out=beta, where=ok)
        sse = np.multiply(beta, num, out=ws.take(num.shape))
        np.subtract(np.moveaxis(np.diagonal(corner[1:, 1:]), -1, 0), sse, out=sse)
        np.maximum(sse, 0.0, out=sse)
        sse /= n - 1 - k
        if corrected:
            # Back-substitute for the w coefficients, the intercept last.
            km = len(self.gram) - 1 - r
            corr = ws.take(num.shape)
            coef = ws.take((km + 1,) + num.shape)
            coef[km] = beta
            for j in reversed(range(km)):
                _dot(self.gram[j + 1 : km + 1, j, None], coef[j + 1 :], ws, out=coef[j])
                np.subtract(self.gram[km + 1 :, j], coef[j], out=coef[j])
            _dot(coef[:km], coef[:km], ws, out=corr)
            corr /= (n - 1) * n
        for i, (tau, s2) in enumerate(fits):
            np.add(self.mean, beta[i], out=tau, where=ok)
            np.divide(sse[i], den, out=s2, where=ok)
            if corrected:
                np.add(s2, corr[i], out=corrected[i], where=ok)
        ws.release(mark)


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
    taken in one part, through a workspace as in :func:`sign_stats`,
    and the denominator is the corner R2 reads (:class:`_SignProducts`).
    """
    zeros = np.zeros((1, d.shape[0]))
    table = _TableColumns.of(Whitened.of(d[None], m[None]), zeros, zeros, True)
    ws = _Workspace(_SignProducts.planes(d.shape[1], m.shape[1], ("R2",)) * len(signs))
    fit = _SignProducts.of(table, times_of(signs[None]), slice(0, 1), slice(0, len(signs)), ws)
    ok = ws.take((1, len(signs)), bool)
    fit.partial_out_dw()
    fit.partial_out_m(ok)
    denom = fit.gram[-2, -2]
    return np.where(ok & (denom > RANK_RTOL * d.shape[0]), denom, np.nan)[0]
