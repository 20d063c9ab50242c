"""Independent reference implementations used only by the tests.

Everything here is written the slow, obvious way: explicit normal
equations with matrix inverses, dense hat matrices, dense sandwich
products, and a Python loop over every assignment for enumeration.
None of it shares code with the library paths it checks.
"""

from __future__ import annotations

import csv
import math
import statistics
from itertools import chain, compress

import numpy as np
import scipy.stats

from paired_adjust.errors import MalformedRow, PairViolation


def fit_oracle(design: np.ndarray, y: np.ndarray):
    """OLS by explicit inverse of the normal equations.

    Returns (beta, residuals, sse).
    """
    xtx = design.T @ design
    beta = np.linalg.inv(xtx) @ (design.T @ y)
    resid = y - design @ beta
    return beta, resid, float(resid @ resid)


def hat_oracle(block: np.ndarray) -> np.ndarray:
    """Dense projection matrix onto the columns of ``block``."""
    n = block.shape[0]
    if block.size == 0:
        return np.zeros((n, n))
    return block @ np.linalg.inv(block.T @ block) @ block.T


def classical_intercept_var_oracle(x: np.ndarray, y: np.ndarray) -> float:
    """(1,1) entry of SSE/dof * inv(X'X) for X = [ones | x]."""
    n = y.shape[0]
    design = np.column_stack([np.ones(n), x])
    _, _, sse = fit_oracle(design, y)
    dof = n - design.shape[1]
    return sse / dof * np.linalg.inv(design.T @ design)[0, 0]


def hc_intercept_var_oracle(x: np.ndarray, y: np.ndarray, variant: str) -> float:
    """Dense HC2/HC3 sandwich, intercept entry."""
    n = y.shape[0]
    design = np.column_stack([np.ones(n), x])
    _, resid, _ = fit_oracle(design, y)
    h = np.diag(hat_oracle(design))
    power = 1 if variant == "HC2" else 2
    omega = np.diag(resid**2 / (1.0 - h) ** power)
    bread = np.linalg.inv(design.T @ design)
    cov = bread @ design.T @ omega @ design @ bread
    return float(cov[0, 0])


def r1_oracle(d: np.ndarray, v: np.ndarray, y: np.ndarray):
    """Closed-form adjusted estimator: intercept of y on v*d.

    tau = e'(I - V H_D V)y / e'(I - V H_D V)e with H_D the dense hat
    matrix of d, and S^2 = SSE/(n - K_D - 1) / e'(I - V H_D V)e.
    Returns (tau, s2).
    """
    n = y.shape[0]
    vmat = np.diag(v)
    proj = np.eye(n) - vmat @ hat_oracle(d) @ vmat
    e = np.ones(n)
    denom = e @ proj @ e
    tau = (e @ proj @ y) / denom
    design = np.column_stack([e, v[:, None] * d])
    _, _, sse = fit_oracle(design, y)
    s2 = sse / (n - d.shape[1] - 1) / denom
    return float(tau), float(s2)


def r2_oracle(d: np.ndarray, m: np.ndarray, v: np.ndarray, y: np.ndarray):
    """Closed-form doubly adjusted estimator: intercept of y on (v*d, m).

    tau = e'(I - H_A)y / e'(I - H_A)e with A = [v*d | m]. Returns
    (tau, s2, beta_m).
    """
    n = y.shape[0]
    a = np.hstack([v[:, None] * d, m])
    proj = np.eye(n) - hat_oracle(a)
    e = np.ones(n)
    denom = e @ proj @ e
    tau = (e @ proj @ y) / denom
    design = np.column_stack([e, a])
    beta, _, sse = fit_oracle(design, y)
    s2 = sse / (n - a.shape[1] - 1) / denom
    beta_m = beta[1 + d.shape[1] :]
    return float(tau), float(s2), beta_m


def _residual_share(a: np.ndarray, col: np.ndarray) -> float:
    """||(I - H_a) col||^2 / ||col||^2, by least squares on a's columns scaled to a largest entry of 1."""
    if a.shape[1] == 0:
        return 1.0
    a = a / np.abs(a).max(axis=0)
    resid = col - a @ np.linalg.lstsq(a, col, rcond=None)[0]
    return float(resid @ resid) / max(float(col @ col), np.finfo(float).tiny)


def singular_oracle(d: np.ndarray, m: np.ndarray, v: np.ndarray, rtol: float = 1e-10) -> bool:
    """Whether the pivot rule calls the intercept design [1 | v*d | m] singular, column by column.

    The columns are taken in the order v*d, then m, then the ones
    vector. Each column of d, then of m, must keep more than ``rtol`` of
    its squared norm once the earlier columns of its block are projected
    out; v*d_j then keeps what d_j kept, since v*v = 1. Each m_j must
    keep more than ``rtol`` times what it kept there once v*d and
    m_1..m_{j-1} are projected out, and e'(I - H)e must exceed
    ``rtol`` * n, with H the projection onto [v*d | m]. R1's design is
    the one with m of zero columns.
    """
    within = [
        _residual_share(block[:, :j], block[:, j]) for block in (d, m) for j in range(block.shape[1])
    ]
    if min(within, default=1.0) <= rtol:
        return True
    vd = v[:, None] * d
    shares = [
        _residual_share(np.hstack([vd, m[:, :j]]), m[:, j]) / _residual_share(m[:, :j], m[:, j])
        for j in range(m.shape[1])
    ]
    shares.append(_residual_share(np.hstack([vd, m]), np.ones(len(v))))
    return min(shares) <= rtol


def superpop_oracle(m: np.ndarray, beta_m: np.ndarray, s2: float) -> float:
    n = m.shape[0]
    sigma = m.T @ m / (n - 1)
    return s2 + float(beta_m @ sigma @ beta_m) / n


def ppf_oracle(p):
    return scipy.stats.norm.ppf(p)


def center_oracle(a: np.ndarray) -> np.ndarray:
    return a - a.mean(axis=0)


def enumerate_oracle(r_t, r_c, d=None, m=None, alpha=0.05):
    """Brute-force randomization distribution, one assignment at a time.

    r_t, r_c are (n, 2) potential outcomes. Pair i is driven by bit i
    of the assignment code (set bit: first unit treated). Returns
    {estimator: (tau array, s2 array)} over all 2^n codes, using only
    the oracle formulas above.
    """
    r_t = np.asarray(r_t, float)
    r_c = np.asarray(r_c, float)
    n = r_t.shape[0]
    total = 2**n
    out = {"C": (np.empty(total), np.empty(total))}
    do_reg = d is not None and m is not None
    if do_reg:
        out["R1"] = (np.empty(total), np.empty(total))
        out["R2"] = (np.empty(total), np.empty(total))
        out["R2P"] = (np.empty(total), np.empty(total))
    for code in range(total):
        v = np.array([1.0 if code >> i & 1 else -1.0 for i in range(n)])
        first_treated = v > 0
        y = np.where(first_treated, r_t[:, 0] - r_c[:, 1], r_t[:, 1] - r_c[:, 0])
        tau_c = y.mean()
        s2_c = ((y - tau_c) ** 2).sum() / (n * (n - 1))
        out["C"][0][code] = tau_c
        out["C"][1][code] = s2_c
        if do_reg:
            t1, s1 = r1_oracle(d, v, y)
            out["R1"][0][code] = t1
            out["R1"][1][code] = s1
            t2, s2, beta_m = r2_oracle(d, m, v, y)
            out["R2"][0][code] = t2
            out["R2"][1][code] = s2
            out["R2P"][0][code] = t2
            out["R2P"][1][code] = superpop_oracle(m, beta_m, s2)
    return out


def coverage_oracle(tau, s2, target, alpha):
    half = scipy.stats.norm.ppf(1 - alpha / 2) * np.sqrt(s2)
    return float((np.abs(tau - target) <= half).mean())


def sate_report_oracle(columns):
    """{metric: {median, q025, q975}} of a sate study's per-sample columns.

    Each column is sorted as Python floats and cut by ``statistics``'
    inclusive quantiles (linear interpolation between order statistics);
    a column holding a NaN gives NaN throughout. Needs two samples or
    more.
    """
    out = {}
    for name, column in columns.items():
        values = sorted(float(v) for v in column)
        if any(math.isnan(v) for v in values):
            out[name] = dict.fromkeys(("median", "q025", "q975"), math.nan)
            continue
        cuts = statistics.quantiles(values, n=40, method="inclusive")
        out[name] = {"median": statistics.median(values), "q025": cuts[0], "q975": cuts[38]}
    return out


def pate_report_oracle(columns, alpha):
    """The cross-sample aggregates of a pate study's per-sample columns, one sample at a time.

    Coverage counts the samples whose interval tau_hat +/- z se covers
    the population target of zero. Each estimator's standard deviation
    is the sample one (n - 1 divisor) of its estimates, R2P sharing
    R2's; se_sd_ratio divides the mean SE by it, and sd_ratio divides
    two of them.
    """
    z = float(scipy.stats.norm.ppf(1 - alpha / 2))
    tau = {e: [float(v) for v in columns[f"tau_{e}"]] for e in ("C", "R1", "R2")}
    tau["R2P"] = tau["R2"]
    se = {e: [float(v) for v in columns[f"se_{e}"]] for e in ("C", "R1", "R2", "R2P")}
    sd = {e: statistics.stdev(tau[e]) for e in ("C", "R1", "R2")}
    sd["R2P"] = sd["R2"]
    out = {}
    for e in ("C", "R1", "R2", "R2P"):
        covered = [abs(t) <= z * s for t, s in zip(tau[e], se[e])]
        out[f"coverage_{e}"] = sum(covered) / len(covered)
    for e in ("C", "R1", "R2", "R2P"):
        out[f"se_sd_ratio_{e}"] = statistics.fmean(se[e]) / sd[e]
    out["sd_ratio_R2_R1"] = sd["R2"] / sd["R1"]
    out["sd_ratio_R1_C"] = sd["R1"] / sd["C"]
    out["sd_ratio_R2_C"] = sd["R2"] / sd["C"]
    return out


def _first_bad(bad: np.ndarray):
    """(row, field) of the first True in file order of a (fields, rows) mask."""
    if not bad.any():
        return None
    return divmod(int(np.argmax(bad.T)), bad.shape[0])


def _parse_fields(parse, what, columns, fields, rows, lines):
    """``parse`` over ``columns[fields]``, returned field-major.

    A token ``parse`` refuses raises MalformedRow naming the first such
    token in file order, which ``rows`` and their ``lines`` give.
    """
    try:
        return list(map(parse, chain.from_iterable(columns[fields])))
    except ValueError:
        for line, row in zip(lines, rows):
            for token in row[fields]:
                try:
                    parse(token)
                except ValueError:
                    raise MalformedRow(f"line {line}: cannot parse {token!r} as {what}") from None
        raise


def read_pairs_oracle(lines, width, flags=()):
    """The CSV data-row reader the package had before numpy's reader: csv.reader, int() and float().

    Same interface, checks and messages as ``experiment_model.read_pairs``;
    the grammar is Python's, which README lists the differences from.
    """
    rows = list(csv.reader(lines))
    counts = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    # a blank line reads as no fields, or as one field of whitespace
    filled = counts > 1
    lone = np.flatnonzero(counts == 1)
    filled[lone] = [bool(rows[i][0].strip()) for i in lone]
    lines = np.flatnonzero(filled) + 2
    if not filled.all():
        rows = list(compress(rows, filled))
        counts = counts[filled]
    m = len(rows)
    if not m:
        raise MalformedRow("no data rows")
    if (counts != width).any():
        r = int(np.argmax(counts != width))
        raise MalformedRow(f"line {lines[r]}: expected {width} fields, got {counts[r]}")

    columns = list(zip(*rows))
    n_int = 2 + len(flags)
    ints = _parse_fields(int, "an integer", columns, slice(0, n_int), rows, lines)
    pairs = ints[:m]
    # unit and flags; object dtype if a value does not fit in int64
    codes = np.array(ints[m:]).reshape(n_int - 1, m)
    names = ("unit", *flags)
    low = np.array([1] + [0] * len(flags))[:, None]
    bad = _first_bad((codes != low) & (codes != low + 1))
    if bad is not None:
        r, c = bad
        raise MalformedRow(
            f"line {lines[r]}: {names[c]} must be {low[c, 0]} or {low[c, 0] + 1}, "
            f"got {codes[c, r]}"
        )
    codes = codes.astype(np.intp)

    values = np.array(_parse_fields(float, "a number", columns, slice(n_int, None), rows, lines))
    values = values.reshape(width - n_int, m)
    bad = _first_bad(~np.isfinite(values))
    if bad is not None:
        r, c = bad
        raise MalformedRow(f"line {lines[r]}: non-finite value {rows[r][n_int + c]!r}")

    ids = tuple(dict.fromkeys(pairs))
    slot = dict(zip(ids, range(len(ids))))
    n = len(ids)
    cell = 2 * np.fromiter(map(slot.__getitem__, pairs), dtype=np.intp, count=m) + codes[0] - 1
    seen = np.bincount(cell, minlength=2 * n)
    if seen.max() > 1:
        first = np.zeros(m, dtype=bool)
        first[np.unique(cell, return_index=True)[1]] = True
        r = int(np.argmin(first))
        raise PairViolation(f"pair {pairs[r]}: unit {codes[0, r]} appears twice")
    lacking = seen.reshape(n, 2).min(axis=1) == 0
    if lacking.any():
        raise PairViolation(f"pair {ids[int(np.argmax(lacking))]}: needs exactly units 1 and 2")
    flag_values = np.empty((2 * n, len(flags)), dtype=int)
    flag_values[cell] = codes[1:].T
    numbers = np.empty((2 * n, width - n_int))
    numbers[cell] = values.T
    return ids, flag_values.reshape(n, 2, len(flags)), numbers.reshape(n, 2, width - n_int)
