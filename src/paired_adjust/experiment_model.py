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

import contextlib
import csv
import io
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, TextIO, Union

import numpy as np

from .errors import (
    RESPONSE_LIMIT,
    BadArgument,
    ConfigError,
    DataError,
    DimensionMismatch,
    LengthMismatch,
    MalformedRow,
    NonFiniteTransform,
    PairViolation,
    RankDeficient,
    TooFewPairs,
    distinct_ints,
    finite_array,
    float_array,
    int_at_least,
    one_of,
    optional,
    strict_int,
)
from .ols_core import RANK_RTOL, whiten

# A centered pair-average column whose values are all at most this
# share of the largest transformed value it averages is rounding noise
# of a constant column. 1024 machine epsilons, about 2.3e-13, is well
# above the few roundings of the transform, the pair sum and the mean.
_ROUNDING_RTOL = 1024 * np.finfo(float).eps

_TRANSFORM_KINDS = ("identity", "power", "log", "exp", "select")


def pair_signs(v: object, n: int) -> np.ndarray:
    """``v`` as n float signs; LengthMismatch for another shape, PairViolation for an entry not +/-1."""
    v = float_array(v, "signs")
    if v.shape != (n,):
        raise LengthMismatch(f"signs have shape {v.shape}, need ({n},)")
    if not np.isin(v, (-1.0, 1.0)).all():
        raise PairViolation("signs must be +1 or -1")
    return v


def freeze(obj: object, **fields: object) -> None:
    """Set fields of the frozen dataclass ``obj``, an array as a read-only C-ordered copy."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value = np.array(value, order="C")
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


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
        freeze(self, kind=kind, degree=degree, columns=columns)

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
        x = float_array(x, "x")
        if x.ndim == 0:
            raise DimensionMismatch("x has shape (), need a last axis of covariates")
        self.output_dim(x.shape[-1])  # validates select bounds
        if self.kind == "identity":
            out = x.copy(order="K")
        elif self.kind == "select":
            out = np.empty_like(x[..., : len(self.columns)])
            for j, c in enumerate(self.columns):
                out[..., j] = x[..., c - 1]
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
    responses go through ``errors.finite_array``: they must be finite,
    and no response may exceed ``RESPONSE_LIMIT`` (2^400) in magnitude
    (DataError), so no fit overflows. A flag that is not 0 or 1, NaN
    included, raises PairViolation, and a pair id that is not an integer
    BadArgument (``strict_int``). All arrays are made read-only, so
    instances can be shared freely across workers.
    """

    x: np.ndarray  # (n, 2, P) covariates
    z: np.ndarray  # (n, 2) treatment flags in {0, 1}
    y: np.ndarray  # (n, 2) observed responses
    pair_ids: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        x = finite_array(self.x, "x", (None, 2, None))
        n = x.shape[0]
        z = float_array(self.z, "z")  # cast to int only once checked
        if z.shape != (n, 2):
            raise DimensionMismatch(f"z has shape {z.shape}, need ({n}, 2)")
        y = finite_array(self.y, "y", (n, 2), RESPONSE_LIMIT)
        if not np.isin(z, (0, 1)).all() or not (z.sum(axis=1) == 1).all():
            raise PairViolation("each pair needs exactly one treated unit")
        ids = tuple(() if self.pair_ids is None else self.pair_ids) or tuple(range(1, n + 1))
        if len(ids) != n:
            raise DimensionMismatch(f"{len(ids)} pair ids for {n} pairs")
        freeze(self, x=x, z=z.astype(int), y=y,
               pair_ids=tuple(strict_int(i, "pair_ids") for i in ids))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[2]


@dataclass(frozen=True)
class DesignMatrices:
    """Regression inputs derived from a paired experiment.

    Every array goes through ``errors.finite_array``: ``d`` is (n, K_D),
    ``m`` (n, K_M), a 1-D ``m`` of n values one column and an empty one
    none; all are finite and ``y`` within 2^401, twice ``RESPONSE_LIMIT``.
    ``m`` columns each sum to zero (:func:`columns_centered`, a rule free
    of units). ``v`` entries are +/-1; ``vd`` holds rows ``v[i] * d[i]``.
    Requires n > K_D + K_M + 1 (:func:`design_estimators`), so the
    intercept regressions have at least one residual degree of freedom.
    The full design [vd | m | 1] is factored once, on first use
    (:attr:`whitened`).
    """

    d: np.ndarray   # (n, K_D)
    m: np.ndarray   # (n, K_M)
    v: np.ndarray   # (n,) signs
    y: np.ndarray   # (n,) treated-minus-control response differences
    d_labels: tuple[str, ...] = ()
    m_labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        d = finite_array(self.d, "d", (None, None))
        n = d.shape[0]
        m = float_array(self.m, "m")
        if m.size == 0 or m.shape == (n,):  # no column, or one
            m = m.reshape(n, int(m.size > 0))
        m = finite_array(m, "m", (n, None))
        y = finite_array(self.y, "y", (n,), 2 * RESPONSE_LIMIT)
        v = pair_signs(finite_array(self.v, "v", (n,)), n)
        _require_pairs(n, d.shape[1], m.shape[1])
        if not columns_centered(m):
            raise DimensionMismatch("m columns must sum to zero across pairs")
        freeze(self, d=d, m=m, v=v, y=y,
               d_labels=tuple(self.d_labels) or _default_labels("d", d.shape[1]),
               m_labels=tuple(self.m_labels) or _default_labels("m", m.shape[1]))

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

    @cached_property
    def whitened(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``ols_core.whiten`` of [vd | m | 1], made on first use and kept, read-only.

        :func:`validate_design` reads its pivots and the R2 fit
        (``estimators.estimate_r2_flavors``) its basis and triangular
        factor, so the design check and the fit share one factorization.
        """
        out = whiten(np.column_stack([self.vd, self.m, np.ones(self.n)]))
        for a in out:
            a.setflags(write=False)
        return out


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
    # Each pass adds the pairs in order whatever the layout: numpy adds
    # pairwise along an innermost pair axis (a lone one-column table's) but
    # never regroups a fold of subtraction, and a - (-b) rounds as a + b.
    out = a
    for _ in range(2):
        terms = np.negative(out)
        terms[..., 0, :] = out[..., 0, :]
        out = out - np.subtract.reduce(terms, axis=-2, keepdims=True) / a.shape[-2]
    return out


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

    Column k passes when |sum_i m_ik| <= 1e-10 * n * max(tiny, max_i |m_ik|),
    tiny the smallest normal float, so rescaling a column rescales both
    sides and the test does not depend on units at any scale. ``m`` has
    shape (n, K_M), or (..., n, K_M) for a stack of tables; the result
    has the leading shape. A zero-width block is centered. An infinite
    column sum fails, whatever the scale; a NaN one is not flagged here.
    """
    n = m.shape[-2]
    total = np.abs(m.sum(axis=-2))
    scale = np.maximum(np.abs(m).max(axis=-2, initial=0.0), np.finfo(float).tiny)
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
    The blocks keep the memory order of ``x``; m's centering, the one sum
    over pairs here, adds them in pair order whatever that order.
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

    The pivots are those of ``dm.whitened``, the one factorization of
    the design that the R2 fit of ``estimate_r2`` also reads, so the two
    make the same rank decision, and neither depends on covariate units.
    Raises RankDeficient, naming the first column that fails the pivot
    test, when the rank falls short of K_D + K_M + 1; otherwise returns
    the diagnostics.
    """
    labels = tuple(f"vd:{l}" for l in dm.d_labels) + tuple(
        f"m:{l}" for l in dm.m_labels
    ) + ("intercept",)
    _, passed, ratios, _, _ = dm.whitened
    diag = DesignDiagnostics(
        expected_rank=passed.shape[0],
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


class _FileText:
    """A file's whole text as a stream named by its path, so that a reader can name the file.

    Iterating yields its lines as ``io.StringIO(text, newline="")`` does;
    ``read`` then gives the rest as one slice of the text, where a
    StringIO would first copy the text in and then copy it out again.
    """

    _END = re.compile(r"\r\n?|\n")

    def __init__(self, text: str, name: str) -> None:
        self._text, self._at, self.name = text, 0, name

    def __iter__(self) -> "_FileText":
        return self

    def __next__(self) -> str:
        start = self._at
        if start >= len(self._text):
            raise StopIteration
        end = self._END.search(self._text, start)
        self._at = end.end() if end else len(self._text)
        return self._text[start : self._at]

    def read(self) -> str:
        rest, self._at = self._text[self._at :], len(self._text)
        return rest


def read_source(source: Union[str, Path, Iterable[str], None]) -> Optional[Iterable[str]]:
    """The one way a file comes in: a path's whole text as a stream named by the path.

    Read as UTF-8 with a leading byte-order mark dropped and line endings
    kept (``newline=""``); a file that cannot be opened or decoded raises
    DataError "cannot read PATH: REASON". Streams, lines and None pass through.
    """
    if not isinstance(source, (str, Path)):
        return source
    try:
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            return _FileText(fh.read(), str(source))
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise DataError(f"cannot read {source}: {getattr(exc, 'strerror', None) or exc}") from None


@contextlib.contextmanager
def writing(dest: Union[str, Path, TextIO]) -> Iterator[TextIO]:
    """The one way a file goes out: ``dest`` open for UTF-8 text, written as given.

    A stream passes through. A path is opened with ``newline=""``, so
    every line ends as the writer ends it, and a failed open or write
    raises ConfigError "cannot write PATH: REASON".
    """
    if not isinstance(dest, (str, Path)):
        yield dest
        return
    try:
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError(f"cannot write {dest}: {getattr(exc, 'strerror', None) or exc}") from None


def split_lines(text: str) -> list[str]:
    """The lines of ``text`` as ``io.StringIO(text, newline="")`` yields them, in one split.

    A line ends at LF, CRLF or a lone CR, and nowhere else: the other
    breaks of ``str.splitlines`` (VT, FF, 0x1C-0x1E, NEL, U+2028, U+2029)
    stay inside their line. Without a quote no ending can be part of a
    field, so the lines come without their endings, from one ``split``
    after the two CR endings are made LF; a text with a quote is split
    by ``io.StringIO`` itself, endings kept.
    """
    if '"' in text:
        return list(io.StringIO(text, newline=""))
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:  # a last line ending in LF leaves an empty part, no line
        lines.pop()
    return lines


def read_header(text: Iterable[str]) -> tuple[list[str], list[str]]:
    """The stripped fields of the first CSV record of ``text`` and the lines after it.

    The rest of a stream (anything with ``read``) is read at once and
    cut by :func:`split_lines`; other iterables give their lines as they are.
    """
    lines = iter(text)
    try:
        header = [h.strip() for h in next(csv.reader(lines))]
    except StopIteration:
        raise MalformedRow("empty file") from None
    read = getattr(lines, "read", None)
    return header, split_lines(read()) if read else list(lines)


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
    numpy refuses the file, or reads fewer rows than there are lines
    because a quoted field spans lines, the first three and the number
    parse are re-run on the tokens to name the line; a refusal none of
    them explains raises MalformedRow with numpy's message, or "a quoted
    field spans lines". A file with no data rows raises MalformedRow.
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
    if len(table) != m:  # a quoted field joined lines into one row
        _name_refusal(rows, text, width, flags)
        raise MalformedRow("a quoted field spans lines")
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


def write_pairs(dest: Union[str, Path, TextIO], header: Sequence[str], ids: Sequence[int],
                flags: np.ndarray, numbers: np.ndarray) -> None:
    """Write the CSV that :func:`read_pairs` reads back, through :func:`writing`.

    ``header``, then per pair in order and per unit 1 and 2 one row:
    the pair id, the unit, the unit's integer ``flags`` (n, 2, F) and its
    ``numbers`` (n, 2, F') in round-trip precision, each line ending in LF.
    """
    with writing(dest) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for pair, pair_flags, pair_numbers in zip(ids, flags.tolist(), numbers.tolist()):
            for unit in range(2):
                writer.writerow([pair, unit + 1, *pair_flags[unit], *map(repr, pair_numbers[unit])])


def load_experiment_csv(source: Union[str, Path, TextIO, Iterable[str]]) -> PairedExperiment:
    """Read a paired experiment from CSV, a path (see :func:`read_source`) or text.

    Expected header: ``pair,unit,z,y,x1..xP`` with two rows per pair id
    (units 1 and 2), in any order; blank and whitespace-only lines are
    skipped. The header is read with :mod:`csv` and the data rows by
    :func:`read_pairs`, whose one ``np.loadtxt`` call takes pair, unit
    and z as int64 and every other field as an ASCII decimal float64.
    Pairs keep their first-appearance order; inside a pair, rows are
    ordered by the unit column. Missing values are rejected, not
    imputed.
    """
    header, lines = read_header(read_source(source))
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
    reproduces the experiment exactly. A path is written through
    :func:`writing`.
    """
    header = [*_BASE_COLUMNS, *(f"x{j}" for j in range(1, exp.p + 1))]
    numbers = np.concatenate([exp.y[:, :, None], exp.x], axis=-1)
    write_pairs(dest, header, exp.pair_ids, exp.z[:, :, None], numbers)
