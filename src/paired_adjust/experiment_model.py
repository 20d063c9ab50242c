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
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence, TextIO, TypeVar, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    MalformedRow,
    NonFiniteTransform,
    PairViolation,
    RankDeficient,
    TooFewPairs,
)
from .ols_core import RANK_RTOL, _whiten

# A centered pair-average column whose values are all at most this
# share of the largest transformed value it averages is rounding noise
# of a constant column. 1024 machine epsilons, about 2.3e-13, is well
# above the few roundings of the transform, the pair sum and the mean.
_ROUNDING_RTOL = 1024 * np.finfo(float).eps

_TRANSFORM_KINDS = ("identity", "power", "log", "exp", "select")

_T = TypeVar("_T")


def strict_int(value: object) -> int:
    """``value`` as an int; booleans, non-integral numbers and other text raise ValueError."""
    if not isinstance(value, bool) and (not isinstance(value, float) or value.is_integer()):
        try:
            return int(value)  # type: ignore[call-overload]
        except (TypeError, ValueError):
            pass
    raise ValueError(f"expected an integer, got {value!r}")


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a)
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
    """

    kind: str
    degree: int | None = None
    columns: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _TRANSFORM_KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.kind == "power":
            if self.degree is None or self.degree < 1:
                raise ValueError("power transform needs degree >= 1")
        elif self.degree is not None:
            raise ValueError(f"degree is only valid for kind='power', not {self.kind!r}")
        if self.kind == "select":
            if self.columns is None:
                raise ValueError("select transform needs a column tuple")
            if len(set(self.columns)) != len(self.columns):
                raise ValueError("select columns must be distinct")
            if any(c < 1 for c in self.columns):
                raise ValueError("select columns are 1-based and must be >= 1")
        elif self.columns is not None:
            raise ValueError(f"columns is only valid for kind='select', not {self.kind!r}")

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
        return cls("select", columns=tuple(int(c) for c in columns))

    @classmethod
    def from_dict(cls, d: dict) -> "TransformSpec":
        """Inverse of :meth:`to_dict`; degree and columns go through strict_int."""
        kind = d.get("kind")
        if kind == "power":
            return cls.power(strict_int(d["degree"]))
        if kind == "select":
            return cls.select([strict_int(c) for c in d["columns"]])
        if kind in ("identity", "log", "exp"):
            return cls(kind)
        raise ValueError(f"unknown transform spec {d!r}")

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "power":
            out["degree"] = self.degree
        if self.kind == "select":
            out["columns"] = list(self.columns or ())
        return out

    def output_dim(self, p: int) -> int:
        """Width of the transformed block for ``p`` input covariates."""
        if self.kind == "power":
            return p * int(self.degree or 0)
        if self.kind == "select":
            cols = self.columns or ()
            if any(c > p for c in cols):
                raise ValueError(f"select columns {cols} exceed covariate count {p}")
            return len(cols)
        return p

    def labels(self, p: int) -> tuple[str, ...]:
        """Column labels for the transformed block, given names x1..xP."""
        names = [f"x{j}" for j in range(1, p + 1)]
        if self.kind == "identity":
            return tuple(names)
        if self.kind == "log":
            return tuple(f"log({nm})" for nm in names)
        if self.kind == "exp":
            return tuple(f"exp({nm})" for nm in names)
        if self.kind == "power":
            deg = int(self.degree or 1)
            return tuple(
                nm if k == 1 else f"{nm}^{k}" for k in range(1, deg + 1) for nm in names
            )
        return tuple(names[c - 1] for c in (self.columns or ()))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Transform the last axis of ``x`` (width P) into width K.

        Raises NonFiniteTransform when the result is not finite, e.g.
        log of a non-positive value or overflow in exp/power.
        """
        x = np.asarray(x, dtype=float)
        p = x.shape[-1]
        self.output_dim(p)  # validates select bounds
        if self.kind == "identity":
            out = x.copy()
        elif self.kind == "log":
            with np.errstate(invalid="ignore", divide="ignore"):
                out = np.log(x)
        elif self.kind == "exp":
            with np.errstate(over="ignore"):
                out = np.exp(x)
        elif self.kind == "power":
            deg = int(self.degree or 1)
            with np.errstate(over="ignore"):
                out = np.concatenate([x**k for k in range(1, deg + 1)], axis=-1)
        else:
            idx = [c - 1 for c in (self.columns or ())]
            out = x[..., idx]
        if out.size and not np.isfinite(out).all():
            raise NonFiniteTransform(
                f"transform {self.kind!r} produced non-finite values"
            )
        return out


@dataclass(frozen=True)
class PairedExperiment:
    """Observed data of a paired experiment.

    Arrays are indexed ``[pair, unit]`` with unit order taken from the
    input; exactly one unit per pair is treated. All arrays are made
    read-only, so instances can be shared freely across workers.
    """

    x: np.ndarray  # (n, 2, P) covariates
    z: np.ndarray  # (n, 2) treatment flags in {0, 1}
    y: np.ndarray  # (n, 2) observed responses
    pair_ids: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        z = np.asarray(self.z, dtype=int)
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
        if not np.isin(z, (0, 1)).all() or not (z.sum(axis=1) == 1).all():
            raise PairViolation("each pair needs exactly one treated unit")
        ids = self.pair_ids or tuple(range(1, n + 1))
        if len(ids) != n:
            raise DimensionMismatch(f"{len(ids)} pair ids for {n} pairs")
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "z", _readonly(z))
        object.__setattr__(self, "y", _readonly(y))
        object.__setattr__(self, "pair_ids", tuple(int(i) for i in ids))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[2]


@dataclass(frozen=True)
class DesignMatrices:
    """Regression inputs derived from a paired experiment.

    ``m`` columns each sum to zero (to 1e-10 * n); ``v`` entries are
    +/-1; ``vd`` holds rows ``v[i] * d[i]``. Requires n > K_D + K_M + 1
    so the intercept regressions have at least one residual degree of
    freedom.
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
        if not np.isin(v, (-1.0, 1.0)).all():
            raise PairViolation("signs must be +1 or -1")
        if n <= d.shape[1] + m.shape[1] + 1:
            raise TooFewPairs(
                f"need n > K_D + K_M + 1, got n={n}, "
                f"K_D={d.shape[1]}, K_M={m.shape[1]}"
            )
        if not columns_centered(m):
            raise DimensionMismatch("m columns must sum to zero across pairs")
        object.__setattr__(self, "d", _readonly(d))
        object.__setattr__(self, "m", _readonly(m))
        object.__setattr__(self, "v", _readonly(v))
        object.__setattr__(self, "y", _readonly(y))
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
    ``ols_core._whiten``. ``pivot_ratios`` holds, per column in the
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
    """Whether the m columns sum to zero, to 1e-10 * n, table by table.

    ``m`` has shape (n, K_M), or (..., n, K_M) for a stack of tables;
    the result has the leading shape. A zero-width block is centered.
    A NaN column sum is not flagged here.
    """
    n = m.shape[-2]
    return ~(np.abs(m.sum(axis=-2)) > 1e-10 * n).any(axis=-1)


def block_widths(f: TransformSpec, g: TransformSpec, p: int) -> tuple[int, int]:
    """Widths K_D and K_M of the f and g blocks for ``p`` covariates.

    Raises DimensionMismatch when a select transform names a column
    the data does not have.
    """
    try:
        return f.output_dim(p), g.output_dim(p)
    except ValueError as exc:
        raise DimensionMismatch(str(exc)) from None


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
    matrices. Raises DimensionMismatch when a select transform names a
    missing column, TooFewPairs when n <= K_D + K_M + 1 (both checked
    from the transform widths before touching the data) and
    NonFiniteTransform when f or g blow up on the observed covariates.
    """
    k_d, k_m = block_widths(f, g, exp.p)
    if exp.n <= k_d + k_m + 1:
        raise TooFewPairs(
            f"need n > K_D + K_M + 1, got n={exp.n}, K_D={k_d}, K_M={k_m}"
        )
    d, m = transformed_blocks(exp.x, f, g)
    v = 2.0 * exp.z[:, 0] - 1.0
    y = v * (exp.y[:, 0] - exp.y[:, 1])
    return DesignMatrices(
        d=d, m=m, v=v, y=y, d_labels=f.labels(exp.p), m_labels=g.labels(exp.p)
    )


def validate_design(dm: DesignMatrices) -> DesignDiagnostics:
    """Check the full design [vd | m | 1] for numerical rank.

    The design is factored by ``ols_core._whiten``, the matrix and the
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
    _, passed, ratios, _, _ = _whiten(full)
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


def _parse_float(token: str, where: str) -> float:
    try:
        val = float(token)
    except ValueError:
        raise MalformedRow(f"{where}: cannot parse {token!r} as a number") from None
    if not math.isfinite(val):
        raise MalformedRow(f"{where}: non-finite value {token!r}")
    return val


def _parse_int(token: str, where: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise MalformedRow(f"{where}: cannot parse {token!r} as an integer") from None


def _read_pairs(
    reader: Iterable[list[str]],
    width: int,
    parse_unit: Callable[[list[str], str], _T],
) -> dict[int, tuple[_T, _T]]:
    """Group CSV data rows (after the header) by pair id.

    Every non-blank row has ``width`` fields: pair id, unit (1 or 2),
    then the fields ``parse_unit(fields, where)`` turns into that unit's
    record. Returns pair id -> (unit 1 record, unit 2 record) in
    first-appearance order. Raises PairViolation for a repeated unit or
    a pair lacking one, MalformedRow for bad rows or no rows at all.
    """
    grouped: dict[int, dict[int, _T]] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        where = f"line {lineno}"
        if len(row) != width:
            raise MalformedRow(f"{where}: expected {width} fields, got {len(row)}")
        pair = _parse_int(row[0], where)
        unit = _parse_int(row[1], where)
        if unit not in (1, 2):
            raise MalformedRow(f"{where}: unit must be 1 or 2, got {unit}")
        record = parse_unit(row[2:], where)
        units = grouped.setdefault(pair, {})
        if unit in units:
            raise PairViolation(f"pair {pair}: unit {unit} appears twice")
        units[unit] = record
    if not grouped:
        raise MalformedRow("no data rows")
    pairs: dict[int, tuple[_T, _T]] = {}
    for pair, units in grouped.items():
        if set(units) != {1, 2}:
            raise PairViolation(f"pair {pair}: needs exactly units 1 and 2")
        pairs[pair] = (units[1], units[2])
    return pairs


def load_experiment_csv(source: Union[str, Path, TextIO, Iterable[str]]) -> PairedExperiment:
    """Read a paired experiment from CSV.

    Expected header: ``pair,unit,z,y,x1..xP`` with two rows per pair id
    (units 1 and 2). Pairs keep their first-appearance order; inside a
    pair, rows are ordered by the unit column. Missing values are
    rejected, not imputed.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return load_experiment_csv(fh)

    reader = csv.reader(source)
    try:
        header = next(reader)
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

    def parse_unit(fields: list[str], where: str) -> tuple[int, float, list[float]]:
        z = _parse_int(fields[0], where)
        if z not in (0, 1):
            raise MalformedRow(f"{where}: z must be 0 or 1, got {z}")
        return z, _parse_float(fields[1], where), [_parse_float(t, where) for t in fields[2:]]

    pairs = _read_pairs(reader, 4 + p, parse_unit)
    n = len(pairs)
    x = np.empty((n, 2, p))
    z = np.empty((n, 2), dtype=int)
    y = np.empty((n, 2))
    for i, (pair, units) in enumerate(pairs.items()):
        for j, (zj, yj, xj) in enumerate(units):
            z[i, j] = zj
            y[i, j] = yj
            x[i, j, :] = xj
        if z[i, 0] + z[i, 1] != 1:
            raise PairViolation(f"pair {pair}: z must sum to 1 across units")
    return PairedExperiment(x=x, z=z, y=y, pair_ids=tuple(pairs))


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
