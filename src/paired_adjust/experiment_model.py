"""Data model for paired experiments and their regression designs.

A :class:`PairedExperiment` holds what the analyst observes: ``n`` pairs,
each with two units carrying covariates, a treatment flag, and a
response. :func:`build_design` turns an experiment into the matrices the
estimators consume:

* ``d``  - within-pair differences of ``f``-transformed covariates,
* ``m``  - pair-level averages of ``g``-transformed covariates, centered
  so every column sums to zero across pairs,
* ``v``  - the pair sign (+1 when the first-listed unit is treated),
* ``y``  - treated-minus-control response differences,
* ``vd`` - rows of ``d`` multiplied by the pair sign, i.e. the
  treated-minus-control covariate differences.

Unit order inside a pair is whatever the input file says; treatment
enters only through ``v``, which keeps ``d`` and ``m`` fixed quantities
that do not change across randomizations.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, TextIO, Union

import numpy as np

from .errors import (
    BadArgument,
    DataError,
    DimensionMismatch,
    LengthMismatch,
    MalformedRow,
    NonFiniteTransform,
    PairViolation,
    RankDeficient,
    TooFewPairs,
    distinct_ints,
    int_at_least,
    one_of,
    optional,
    strict_int,
)
from .kernel import RESPONSE_LIMIT
from .ols_core import RANK_RTOL, whiten

# A centered pair-average column whose values are all at most this
# share of the largest transformed value it averages is rounding noise
# of a constant column. 1024 machine epsilons, about 2.3e-13, is well
# above the few roundings of the transform, the pair sum and the mean.
_ROUNDING_RTOL = 1024 * np.finfo(float).eps

_TRANSFORM_KINDS = ("identity", "power", "log", "exp", "select")


def pair_signs(v: object, n: int) -> np.ndarray:
    """``v`` as n float signs; LengthMismatch for another shape, PairViolation for an entry not +/-1."""
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise LengthMismatch(f"signs have shape {v.shape}, need ({n},)")
    if not np.isin(v, (-1.0, 1.0)).all():
        raise PairViolation("signs must be +1 or -1")
    return v


def readonly(a: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of ``a`` that cannot be written; ``a`` itself stays as it was."""
    out = np.array(a, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TransformSpec:
    """Elementwise covariate transform with a data-independent output width.

    Supported kinds:

    * ``identity``          - pass columns through unchanged.
    * ``power`` (degree k)  - all columns to powers 1..k, degree-major
      order (x1..xP, x1^2..xP^2, ...).
    * ``log`` / ``exp``     - elementwise on every column.
    * ``select`` (columns)  - keep a subset of columns, 1-based indices.
      An empty subset is allowed and yields a zero-width block, which is
      how a design omits the corresponding regressor group entirely.

    The constructor casts its fields, so a degree or columns that are
    not integers >= 1, repeated columns, or either for another kind raise
    BadArgument.
    """

    kind: str
    degree: int | None = None
    columns: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        kind = one_of(self.kind, _TRANSFORM_KINDS, "transform kind")
        if kind == "power":
            degree = int_at_least(self.degree, 1, "power degree")
        else:
            degree = one_of(self.degree, (None,), f"{kind} degree")
        if kind == "select":
            columns = distinct_ints(self.columns, 1, "select columns")
        else:
            columns = one_of(self.columns, (None,), f"{kind} columns")
        for name, value in (("kind", kind), ("degree", degree), ("columns", columns)):
            object.__setattr__(self, name, value)

    @classmethod
    def identity(cls) -> "TransformSpec":
        return cls("identity")

    @classmethod
    def power(cls, degree: int) -> "TransformSpec":
        return cls("power", degree=degree)

    @classmethod
    def log(cls) -> "TransformSpec":
        return cls("log")

    @classmethod
    def exp(cls) -> "TransformSpec":
        return cls("exp")

    @classmethod
    def select(cls, columns: Sequence[int]) -> "TransformSpec":
        return cls("select", columns=columns)

    @classmethod
    def from_dict(cls, d: dict) -> "TransformSpec":
        """Inverse of :meth:`to_dict`; the constructor casts kind, degree and columns."""
        return cls(d.get("kind"), degree=d.get("degree"), columns=d.get("columns"))

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "power":
            out["degree"] = self.degree
        if self.kind == "select":
            out["columns"] = list(self.columns)
        return out

    def output_dim(self, p: int) -> int:
        """Width of the transformed block for ``p`` input covariates."""
        if self.kind == "power":
            return p * self.degree
        if self.kind == "select":
            if self.columns:
                int_at_least(max(self.columns), 1, "select columns", high=p)
            return len(self.columns)
        return p

    def labels(self, p: int) -> tuple[str, ...]:
        """Column labels for the transformed block, given names x1..xP."""
        names = [f"x{j}" for j in range(1, p + 1)]
        if self.kind == "identity":
            return tuple(names)
        if self.kind in ("log", "exp"):
            return tuple(f"{self.kind}({nm})" for nm in names)
        if self.kind == "power":
            return tuple(
                nm if k == 1 else f"{nm}^{k}" for k in range(1, self.degree + 1) for nm in names
            )
        return tuple(names[c - 1] for c in self.columns)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Transform the last axis of ``x`` (width P) into width K.

        Raises NonFiniteTransform when the result is not finite, e.g.
        log of a non-positive value or overflow in exp/power.
        """
        x = np.asarray(x, dtype=float)
        self.output_dim(x.shape[-1])  # validates select bounds
        if self.kind == "identity":
            out = x.copy()
        elif self.kind == "select":
            out = x[..., [c - 1 for c in self.columns]]
        else:  # a non-finite result is refused below, so numpy need not warn of it
            with np.errstate(all="ignore"):
                if self.kind == "power":
                    out = np.concatenate([x**k for k in range(1, self.degree + 1)], axis=-1)
                else:
                    out = getattr(np, self.kind)(x)
        if out.size and not np.isfinite(out).all():
            raise NonFiniteTransform(
                f"transform {self.kind!r} produced non-finite values"
            )
        return out


@dataclass(frozen=True)
class PairedExperiment:
    """Observed data of a paired experiment.

    Arrays are indexed ``[pair, unit]`` with unit order taken from the
    input; exactly one unit per pair is treated. Covariates and
    responses must be finite, and no response may exceed the kernel's
    ``RESPONSE_LIMIT`` (2^400) in magnitude (DataError), so no fit
    overflows. A flag that is not 0 or 1, NaN included, raises
    PairViolation, and a pair id that is not an integer BadArgument
    (``strict_int``). All arrays are made read-only, so instances can be
    shared freely across workers.
    """

    x: np.ndarray  # (n, 2, P) covariates
    z: np.ndarray  # (n, 2) treatment flags in {0, 1}
    y: np.ndarray  # (n, 2) observed responses
    pair_ids: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        z = np.asarray(self.z, dtype=float)  # cast to int only once checked
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 3 or x.shape[1] != 2:
            raise DimensionMismatch(f"covariates must be (n, 2, P), got {x.shape}")
        n = x.shape[0]
        if z.shape != (n, 2) or y.shape != (n, 2):
            raise DimensionMismatch(
                f"z {z.shape} and y {y.shape} must both be ({n}, 2)"
            )
        if not np.isfinite(x).all() or not np.isfinite(y).all():
            raise MalformedRow("covariates and responses must be finite")
        if (top := np.abs(y).max(initial=0.0)) > RESPONSE_LIMIT:
            raise DataError(f"a response of magnitude {top:.6g} exceeds the largest the "
                            f"estimators take, 2^400 (about {RESPONSE_LIMIT:.2g})")
        if not np.isin(z, (0, 1)).all() or not (z.sum(axis=1) == 1).all():
            raise PairViolation("each pair needs exactly one treated unit")
        ids = self.pair_ids or tuple(range(1, n + 1))
        if len(ids) != n:
            raise DimensionMismatch(f"{len(ids)} pair ids for {n} pairs")
        object.__setattr__(self, "x", readonly(x))
        object.__setattr__(self, "z", readonly(z.astype(int)))
        object.__setattr__(self, "y", readonly(y))
        object.__setattr__(self, "pair_ids", tuple(strict_int(i, "pair_ids") for i in ids))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[2]


@dataclass(frozen=True)
class DesignMatrices:
    """Regression inputs derived from a paired experiment.

    ``d``, ``m`` and ``y`` are finite, and ``m`` columns each sum to
    zero (to 1e-10 * n times the larger of 1 and the column's largest
    magnitude, :func:`columns_centered`); both are checked here, in that
    order, since the arrays may come from a caller, and a non-finite
    value raises DataError naming its array. ``v`` entries are +/-1;
    ``vd`` holds rows ``v[i] * d[i]``. Requires n > K_D + K_M + 1,
    the size test of :func:`design_estimators`, so the intercept
    regressions have at least one residual degree of freedom.
    """

    d: np.ndarray   # (n, K_D)
    m: np.ndarray   # (n, K_M)
    v: np.ndarray   # (n,) signs
    y: np.ndarray   # (n,) treated-minus-control response differences
    d_labels: tuple[str, ...] = ()
    m_labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        d = np.atleast_2d(np.asarray(self.d, dtype=float))
        m = np.asarray(self.m, dtype=float).reshape(d.shape[0], -1)
        v = np.asarray(self.v, dtype=float)
        y = np.asarray(self.y, dtype=float)
        n = d.shape[0]
        if v.shape != (n,) or y.shape != (n,) or m.shape[0] != n:
            raise DimensionMismatch("d, m, v, y must agree on the number of pairs")
        for name, block in (("d", d), ("m", m), ("y", y)):
            if not np.isfinite(block).all():
                raise DataError(f"{name} holds a non-finite value")
        pair_signs(v, n)
        _require_pairs(n, d.shape[1], m.shape[1])
        if not columns_centered(m):
            raise DimensionMismatch("m columns must sum to zero across pairs")
        object.__setattr__(self, "d", readonly(d))
        object.__setattr__(self, "m", readonly(m))
        object.__setattr__(self, "v", readonly(v))
        object.__setattr__(self, "y", readonly(y))
        object.__setattr__(self, "d_labels", tuple(self.d_labels) or _default_labels("d", d.shape[1]))
        object.__setattr__(self, "m_labels", tuple(self.m_labels) or _default_labels("m", m.shape[1]))

    @property
    def n(self) -> int:
        return self.d.shape[0]

    @property
    def k_d(self) -> int:
        return self.d.shape[1]

    @property
    def k_m(self) -> int:
        return self.m.shape[1]

    @property
    def vd(self) -> np.ndarray:
        """Treated-minus-control transformed covariate differences."""
        return self.v[:, None] * self.d


@dataclass(frozen=True)
class DesignDiagnostics:
    """Numerical health report for the full design [vd | m | 1].

    ``rank`` counts the columns that pass the pivot test of
    ``ols_core.whiten``. ``pivot_ratios`` holds, per column in the
    order of ``column_labels``, R_kk^2 over the squared norm of the
    column: the share of the column left after the columns before it
    are projected out (zero for a zero column). A column passes when
    its ratio exceeds RANK_RTOL.
    """

    expected_rank: int
    rank: int
    column_labels: tuple[str, ...]
    pivot_ratios: np.ndarray

    @property
    def deficient(self) -> bool:
        return self.rank < self.expected_rank


def _default_labels(prefix: str, k: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{j}" for j in range(1, k + 1))


def _center_columns(a: np.ndarray) -> np.ndarray:
    # Two passes push the residual column sums down to the roundoff of
    # the centered values rather than of the raw scale. Columns run along
    # the second-to-last axis, so a stack of tables centers table by table.
    out = a - a.mean(axis=-2, keepdims=True)
    return out - out.mean(axis=-2, keepdims=True)


def _zero_rounding_columns(m: np.ndarray, gx: np.ndarray) -> np.ndarray:
    # A centered column of m (..., n, K) whose values all lie within
    # _ROUNDING_RTOL of the largest magnitude among the transformed
    # values gx (..., n, 2, K) it averages was constant up to rounding.
    # It is set to exact zero, so the pivot test, which cannot tell
    # rounding noise from data, sees no column. Sums of squares screen
    # the columns first: such a column has ||m||^2 <= n * rtol^2 *
    # ||gx||^2, and the maxima are taken only if some column passes.
    with np.errstate(over="ignore", under="ignore"):
        ss_m = np.einsum("...ik,...ik->...k", m, m)
        ss_g = np.einsum("...ijk,...ijk->...k", gx, gx)
        if not (ss_m <= 2 * m.shape[-2] * _ROUNDING_RTOL**2 * ss_g).any():
            return m
    spread = np.abs(m).max(axis=-2, keepdims=True, initial=0.0)
    scale = np.abs(gx).max(axis=(-3, -2), initial=0.0)[..., None, :]
    return np.where(spread <= _ROUNDING_RTOL * scale, 0.0, m)


def columns_centered(m: np.ndarray) -> np.ndarray:
    """Whether the m columns sum to zero, table by table: the package's one centering rule.

    Column k passes when |sum_i m_ik| <= 1e-10 * n * max(1, max_i |m_ik|),
    so rescaling a column of scale above 1 rescales both sides and the
    test does not depend on covariate units. ``m`` has shape (n, K_M),
    or (..., n, K_M) for a stack of tables; the result has the leading
    shape. A zero-width block is centered. An infinite column sum fails,
    whatever the scale; a NaN one is not flagged here.
    """
    n = m.shape[-2]
    total = np.abs(m.sum(axis=-2))
    scale = np.maximum(np.abs(m).max(axis=-2, initial=0.0), 1.0)
    return ~((total > 1e-10 * n * scale) | np.isinf(total)).any(axis=-1)


def block_widths(f: TransformSpec, g: TransformSpec, p: int) -> tuple[int, int]:
    """Widths K_D and K_M of the f and g blocks for ``p`` covariates.

    Raises DimensionMismatch when a select transform names a column
    the data does not have.
    """
    try:
        return f.output_dim(p), g.output_dim(p)
    except BadArgument as exc:
        raise DimensionMismatch(str(exc)) from None


def _require_pairs(n: int, k_d: int, k_m: int) -> None:
    """The size test of the feasibility rule: n > K_D + K_M + 1."""
    if n <= k_d + k_m + 1:
        raise TooFewPairs(f"need n > K_D + K_M + 1, got n={n}, K_D={k_d}, K_M={k_m}")


def design_estimators(
    n: int, p: Optional[int], f: Optional[TransformSpec], g: Optional[TransformSpec]
) -> tuple[str, ...]:
    """The estimators a design of ``n`` pairs allows: the package's one feasibility rule.

    ``p`` is the covariate count, None for a table without covariates.
    With neither transform given, only the mean "C" is asked for; a lone
    missing transform is identity. R1 and R2 divide by n - K_D - 1 and
    n - K_D - K_M - 1, so they need n > K_D + K_M + 1, and "R2P" needs
    K_M >= 1. Raises BadArgument when f or g is neither None nor a
    TransformSpec, TooFewPairs below 2 pairs and, when transforms are
    given, for n <= K_D + K_M + 1; DimensionMismatch when transforms meet
    a table without covariates or a select transform a missing column.
    """
    f, g = optional(f, TransformSpec, "f"), optional(g, TransformSpec, "g")
    if n < 2:
        raise TooFewPairs(f"need at least 2 pairs, got {n}")
    if f is None and g is None:
        return ("C",)
    if p is None:
        raise DimensionMismatch("no observed covariates; drop the transforms or supply x columns")
    k_d, k_m = block_widths(f or TransformSpec.identity(), g or TransformSpec.identity(), p)
    _require_pairs(n, k_d, k_m)
    return ("C", "R1", "R2", "R2P") if k_m else ("C", "R1", "R2")


def transformed_blocks(
    x: np.ndarray, f: TransformSpec, g: TransformSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Assignment-independent design blocks from unit covariates.

    ``x`` has shape (n, 2, P), or (..., n, 2, P) for a stack of tables.
    Returns ``d`` (within-pair differences of the f-transformed
    covariates, unit 1 minus unit 2) and centered ``m`` (pair averages
    of the g-transformed covariates), each table's values identical to
    what it gives on its own. An m column that is constant up to the
    rounding of the values it averages comes back exactly zero. Raises
    NonFiniteTransform when a transform or either block is not finite.
    """
    fx = f.apply(x)
    gx = g.apply(x)
    with np.errstate(over="ignore", invalid="ignore"):
        d = fx[..., 0, :] - fx[..., 1, :]
        m = _center_columns((gx[..., 0, :] + gx[..., 1, :]) / 2.0)
    if not (np.isfinite(d).all() and np.isfinite(m).all()):
        raise NonFiniteTransform("within-pair differences or centered pair averages overflow")
    return d, _zero_rounding_columns(m, gx)


def build_design(
    exp: PairedExperiment, f: TransformSpec, g: TransformSpec
) -> DesignMatrices:
    """Construct the design matrices for an experiment.

    Deterministic: the same experiment and specs give bitwise-identical
    matrices. Raises what :func:`design_estimators` raises for the
    design, checked from the transform widths before touching the data,
    and NonFiniteTransform when f or g blow up on the observed
    covariates.
    """
    design_estimators(exp.n, exp.p, f, g)
    d, m = transformed_blocks(exp.x, f, g)
    v = 2.0 * exp.z[:, 0] - 1.0
    y = v * (exp.y[:, 0] - exp.y[:, 1])
    return DesignMatrices(
        d=d, m=m, v=v, y=y, d_labels=f.labels(exp.p), m_labels=g.labels(exp.p)
    )


def validate_design(dm: DesignMatrices) -> DesignDiagnostics:
    """Check the full design [vd | m | 1] for numerical rank.

    The design is factored by ``ols_core.whiten``, the matrix and the
    column order the R2 fit of ``estimate_r2`` factors, so the two make
    the same rank decision, and neither depends on covariate units.
    Raises RankDeficient, naming the first column that fails the pivot
    test, when the rank falls short of K_D + K_M + 1; otherwise returns
    the diagnostics.
    """
    full = np.column_stack([dm.vd, dm.m, np.ones(dm.n)])
    labels = tuple(f"vd:{l}" for l in dm.d_labels) + tuple(
        f"m:{l}" for l in dm.m_labels
    ) + ("intercept",)
    _, passed, ratios, _, _ = whiten(full)
    diag = DesignDiagnostics(
        expected_rank=full.shape[1],
        rank=int(passed.sum()),
        column_labels=labels,
        pivot_ratios=ratios,
    )
    if diag.deficient:
        k = int(np.argmin(passed))
        raise RankDeficient(
            f"design rank {diag.rank} < {diag.expected_rank}: column {labels[k]} "
            f"is numerically in the span of the columns before it "
            f"(pivot ratio {ratios[k]:.3g}, tolerance {RANK_RTOL:g})"
        )
    return diag


_BASE_COLUMNS = ("pair", "unit", "z", "y")


# np.loadtxt settings of every data-row parse: numpy's C reader is the one
# grammar of a field, and its float converter is the routine behind float().
_LOADTXT = dict(delimiter=",", comments=None, ndmin=1)


def _line(text: Sequence[str], r: int) -> int:
    """File line of data row ``r`` of the lines after the header; blank lines count."""
    return [i for i, line in enumerate(text, 2) if line.strip()][r]


def _first_bad(bad: np.ndarray) -> tuple[int, int] | None:
    """(row, field) of the first True in file order of a (rows, fields) mask."""
    if not bad.any():
        return None
    return divmod(int(np.argmax(bad)), bad.shape[1])


def _fields(row: str) -> list[str]:
    """The fields of one data row as numpy's reader splits them."""
    return np.loadtxt([row], dtype=str, quotechar='"', **_LOADTXT).tolist()


def _parse(tokens: list[str], dtype: type) -> Optional[np.ndarray]:
    """``tokens``, one to a line, read by numpy's reader as ``dtype``; None if it refuses one.

    The tokens are fields already split from their rows, so a quote in
    one is text, as is a comma, which makes a second field and a refusal.
    """
    if not tokens:
        return np.empty(0, dtype)
    try:
        return np.loadtxt(tokens, dtype=[("v", dtype)], **_LOADTXT)["v"]
    except ValueError:
        return None


def _parse_located(
    tokens: list[str], dtype: type, what: str, per_row: int, text: Sequence[str]
) -> np.ndarray:
    """``tokens`` of consecutive data rows, ``per_row`` each, parsed as ``dtype``.

    Returns a (rows, per_row) array. MalformedRow names the first token
    numpy's reader refuses, found by bisection over prefixes. The reader
    skips an empty line, so a blank token is refused without asking it.
    """
    blank = next((k for k, token in enumerate(tokens) if not token.strip()), len(tokens))
    parsed = _parse(tokens[:blank], dtype)
    if parsed is None:
        lo, hi = 0, blank  # tokens[:lo] parse, tokens[:hi] do not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _parse(tokens[:mid], dtype) is None:
                hi = mid
            else:
                lo = mid
        bad = lo
    elif blank == len(tokens):
        return parsed.reshape(-1, per_row)
    else:
        bad = blank
    raise MalformedRow(f"line {_line(text, bad // per_row)}: cannot parse {tokens[bad]!r} as {what}")


def _check_codes(ints: np.ndarray, flags: Sequence[str], text: Sequence[str]) -> None:
    """MalformedRow for the first unit (1 or 2) or flag (0 or 1) out of range.

    ``ints`` holds the integer fields of each data row: pair, unit, then
    one column per name in ``flags``.
    """
    codes = ints[:, 1:]
    low = np.array([1] + [0] * len(flags))
    bad = _first_bad((codes != low) & (codes != low + 1))
    if bad is not None:
        r, c = bad
        raise MalformedRow(
            f"line {_line(text, r)}: {('unit', *flags)[c]} must be {low[c]} or {low[c] + 1}, "
            f"got {codes[r, c]}"
        )


def _name_refusal(rows: list[str], text: Sequence[str], width: int, flags: Sequence[str]) -> None:
    """Raise the MalformedRow that the check order names in ``rows``, which numpy's reader refused.

    The rows are split and their tokens re-read by numpy's reader; the
    checks of :func:`read_pairs` up to the number parse run in order.
    Returns if none fails, or if a row cannot be split alone.
    """
    try:
        fields = [_fields(row) for row in rows]
    except ValueError:
        return
    counts = np.array([len(f) for f in fields])
    if (counts != width).any():
        r = int(np.argmax(counts != width))
        raise MalformedRow(f"line {_line(text, r)}: expected {width} fields, got {counts[r]}")
    n_int = 2 + len(flags)
    ints = [token for f in fields for token in f[:n_int]]
    _check_codes(_parse_located(ints, np.int64, "an integer", n_int, text), flags, text)
    numbers = [token for f in fields for token in f[n_int:]]
    _parse_located(numbers, np.float64, "a number", width - n_int, text)


def read_pairs(
    lines: Iterable[str],
    width: int,
    flags: Sequence[str] = (),
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Group the CSV data lines after the header by pair id.

    Blank and whitespace-only lines are skipped; every other line is a
    row of ``width`` fields: pair id, unit (1 or 2), one integer per
    name in ``flags`` (each 0 or 1), then numbers. All rows are parsed
    by one ``np.loadtxt`` call, integers as int64 and numbers as
    float64, so the field grammar is numpy's (see README). Returns the
    pair ids, Python ints in first-appearance order, the flags as an
    (n, 2, len(flags)) int array and the numbers as an (n, 2, F) float
    array, both indexed ``[pair, unit - 1]``.

    The checks run over the whole file in this order, and each names the
    first failing line, or pair, in file order: field count, integer
    parse, unit and flag range, number parse, finiteness (MalformedRow),
    then a repeated unit and a pair lacking one (PairViolation). When
    numpy refuses the file, the first three and the number parse are
    re-run on the tokens to name the line; a refusal none of them
    explains raises MalformedRow with numpy's message. A file with no
    data rows raises MalformedRow.
    """
    text = list(lines)
    rows = list(filter(str.strip, text))
    m = len(rows)
    if not m:
        raise MalformedRow("no data rows")
    n_int = 2 + len(flags)
    record = [(f"f{j}", np.int64 if j < n_int else np.float64) for j in range(width)]
    try:
        table = np.loadtxt(rows, dtype=record, quotechar='"', **_LOADTXT)
    except ValueError as exc:
        _name_refusal(rows, text, width, flags)
        raise MalformedRow(str(exc)) from None
    # Every field is 8 bytes wide, so the records view as (m, width) of either type.
    ints = table.view(np.int64).reshape(m, width)[:, :n_int]
    values = table.view(np.float64).reshape(m, width)[:, n_int:]
    _check_codes(ints, flags, text)
    bad = _first_bad(~np.isfinite(values))
    if bad is not None:
        r, c = bad
        raise MalformedRow(f"line {_line(text, r)}: non-finite value {_fields(rows[r])[n_int + c]!r}")

    pairs = ints[:, 0]
    uniq, first, inverse = np.unique(pairs, return_index=True, return_inverse=True)
    order = np.argsort(first)
    n = len(uniq)
    slot = np.empty(n, dtype=np.intp)
    slot[order] = np.arange(n)
    cell = 2 * slot[inverse] + ints[:, 1] - 1
    seen = np.bincount(cell, minlength=2 * n)
    if seen.max() > 1:
        first_cell = np.zeros(m, dtype=bool)
        first_cell[np.unique(cell, return_index=True)[1]] = True
        r = int(np.argmin(first_cell))
        raise PairViolation(f"pair {pairs[r]}: unit {ints[r, 1]} appears twice")
    ids = tuple(uniq[order].tolist())
    lacking = seen.reshape(n, 2).min(axis=1) == 0
    if lacking.any():
        raise PairViolation(f"pair {ids[int(np.argmax(lacking))]}: needs exactly units 1 and 2")
    flag_values = np.empty((2 * n, len(flags)), dtype=int)
    flag_values[cell] = ints[:, 2:]
    numbers = np.empty((2 * n, width - n_int))
    numbers[cell] = values
    return ids, flag_values.reshape(n, 2, len(flags)), numbers.reshape(n, 2, width - n_int)


def load_experiment_csv(source: Union[str, Path, TextIO, Iterable[str]]) -> PairedExperiment:
    """Read a paired experiment from CSV.

    Expected header: ``pair,unit,z,y,x1..xP`` with two rows per pair id
    (units 1 and 2), in any order; blank and whitespace-only lines are
    skipped and a path may start with a UTF-8 byte-order mark. The
    header is read with :mod:`csv` and the data rows by
    :func:`read_pairs`, whose one ``np.loadtxt`` call takes pair, unit
    and z as int64 and every other field as an ASCII decimal float64.
    Pairs keep their first-appearance order; inside a pair, rows are
    ordered by the unit column. Missing values are rejected, not
    imputed.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            return load_experiment_csv(fh)

    lines = iter(source)
    try:
        header = next(csv.reader(lines))
    except StopIteration:
        raise MalformedRow("empty file") from None
    header = [h.strip() for h in header]
    if tuple(header[:4]) != _BASE_COLUMNS:
        raise MalformedRow(
            f"header must start with {','.join(_BASE_COLUMNS)}, got {header[:4]}"
        )
    x_cols = header[4:]
    p = len(x_cols)
    if x_cols != [f"x{j}" for j in range(1, p + 1)] or p < 1:
        raise MalformedRow(f"covariate columns must be x1..xP, got {x_cols}")

    pair_ids, flags, values = read_pairs(lines, 4 + p, ("z",))
    z = flags[:, :, 0]
    unbalanced = z.sum(axis=1) != 1
    if unbalanced.any():
        pair = pair_ids[int(np.argmax(unbalanced))]
        raise PairViolation(f"pair {pair}: z must sum to 1 across units")
    return PairedExperiment(x=values[:, :, 1:], z=z, y=values[:, :, 0], pair_ids=pair_ids)


def write_experiment_csv(exp: PairedExperiment, dest: Union[str, Path, TextIO]) -> None:
    """Write an experiment in the same CSV schema load_experiment_csv reads.

    Floats are written with round-trip precision, so write-then-load
    reproduces the experiment exactly.
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_experiment_csv(exp, fh)
        return
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(list(_BASE_COLUMNS) + [f"x{j}" for j in range(1, exp.p + 1)])
    for i in range(exp.n):
        for j in range(2):
            writer.writerow(
                [exp.pair_ids[i], j + 1, int(exp.z[i, j]), repr(float(exp.y[i, j]))]
                + [repr(float(v)) for v in exp.x[i, j]]
            )
