"""Randomization distributions: exact enumeration, Monte Carlo and studies.

A science table fixes both potential outcomes for every unit, so the
only randomness left is the vector of pair signs. This module studies
estimators under that randomness three ways:

* :func:`enumerate_exact` walks all 2^n assignments (small n), giving
  exact means, variances and coverage - the ground truth the sampling
  routines are checked against. Its sign products are sums of two half
  tables (:class:`_HalfTables`), and it fits each code below 2^(n-1)
  together with its twin, the code of the negated signs.
* :func:`run_monte_carlo` samples B assignments for one table.
* :func:`run_study` repeats that over S fresh tables and aggregates
  either per-sample summaries (in-sample target) or one draw per table
  (population target, where the spread across tables matters).

Every fit comes from the batched kernel's one entry point,
``kernel.sign_stats``, on a grid of tables by signs: one table by all
2^n codes or by B draws (:func:`_table_stats`), or slabs of tables by
their B draws each (studies, with B = 1 in a pate study). Every mode
builds the kernel's inputs of its tables one way,
:func:`_kernel_inputs`: the effects and gaps, then the blocks and their
whitened bases. :func:`run_study` cuts the sample indices once into
contiguous slabs of at most ``_STUDY_PAIRS`` pairs and computes them on
a pool of threads. Both study modes go through one slab path,
:func:`_study_block`. It reads each sample index's normals and signs
from its own substreams (:class:`_StudyStreams`), stacks the slab's
outcomes and covariates in one pass, so no per-table sample object is
built, and builds what does not depend on the signs once. The slab's
tables then meet their signs in one kernel call, which cuts them into
passes by the kernel's grid budget and returns one column per metric
(:func:`_sate_columns`, :func:`_pate_columns`). A sate study
summarizes each table's B draws against its own average effect, each
estimator's (T, B) grid in one :func:`_summarize` call; a pate study
keeps its one draw per table. The m block is centered by construction
(``experiment_model.transformed_blocks``), so no mode checks it again.
Every entry point first asks ``experiment_model.design_estimators``
which estimators the design allows, and every mode makes the same rank
decision, the kernel's pivot tests: the first draw, in index order,
that fails them raises RankDeficient (:func:`_refuse_singular`).
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field, fields, replace
from functools import partial, reduce
from itertools import islice
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import kernel
from .dgp import N_COVARIATES, SETTINGS, PotentialOutcomeSample, stacked_tables
from .errors import (
    ConfigError,
    DimensionMismatch,
    NonFiniteTransform,
    RankDeficient,
    TooLarge,
    WrongEstimator,
    as_alpha,
    int_at_least,
    one_of,
)
from .estimators import normal_quantile
from .experiment_model import (
    PairedExperiment,
    TransformSpec,
    design_estimators,
    pair_signs,
    transformed_blocks,
)
from .kernel import Times, Whitened, effects_and_gaps, sign_stats, times_of
from .ols_core import whiten
from .rng import ROLE_ASSIGN, ROLE_SAMPLE, substreams

ENUMERATION_CAP = 16
# A study cuts its sample indices into slabs (see run_study) and makes
# one kernel call per slab. A slab builds the sign-independent part of
# its tables once: their normals, covariates and blocks, the whitened
# bases and the effects and gaps. _STUDY_PAIRS bounds the pairs it holds
# (at least one table), so it bounds that build's traced peak, about 380
# bytes per pair (9.6 KB per table at n = 25, 38 KB at n = 100, 2.5 MB a
# slab), and the per-slab cost is paid once for that many pairs. The
# kernel cuts the slab's signs into passes by its own grid budget. A
# table's values depend neither on the slab nor on the pass it is in.
_STUDY_PAIRS = 6400

ESTIMATOR_IDS = ("C", "R1", "R2", "R2P")
# numpy's bit generators whose raw words are 64 bits wide; MT19937's are 32.
_BIT_GENERATORS = ("PCG64", "PCG64DXSM", "Philox", "SFC64")


def randomize(
    n: int, rng: np.random.Generator, b: Optional[int] = None
) -> np.ndarray:
    """Draw independent fair pair signs, values +/-1.

    Shape (n,), or (b, n) for b assignments drawn row by row from the
    same stream: ceil(b*n/2) raw words of ``rng``'s bit generator (b = 1
    when not given), decoded by :func:`_signs_of_words` as a study's
    are. Takes n >= 0 and b >= 1; a bit generator other than numpy's
    four with 64-bit raw words (MT19937's are 32 bits) raises BadArgument.
    """
    n = int_at_least(n, 0, "n")
    rows = 1 if b is None else int_at_least(b, 1, "b")
    bits = getattr(rng, "bit_generator", None)
    one_of(type(bits).__name__, _BIT_GENERATORS, "bit generator")
    out = np.empty((1, rows, n))
    _signs_of_words(bits.random_raw((out.shape[1] * n + 1) // 2)[None], out)
    return out[0, 0] if b is None else out[0]


def assignment_signs(codes: np.ndarray, n: int) -> np.ndarray:
    """Decode assignment codes into sign vectors, shape (B, n).

    Bit i of a code drives pair i (least significant bit first); a set
    bit means the first-listed unit is treated (sign +1). The bits are
    unpacked from the codes' little-endian bytes into uint8 and turned
    into signs in the float result, so nothing as large as it is made
    on the way. Takes 0 <= n <= 64.
    """
    n = int_at_least(n, 0, "n", high=64)
    codes = np.ascontiguousarray(codes, dtype="<i8").reshape(-1)
    bits = np.unpackbits(codes.view(np.uint8).reshape(-1, 8), axis=-1, count=n, bitorder="little")
    out = np.multiply(bits, 2.0, dtype=float)
    return np.subtract(out, 1.0, out=out)


def _signs_of_words(raw: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Decode (T, ceil(b*n/2)) raw 64-bit words into (T, b, n) pair signs, in ``out``.

    This is the package's one sign draw, for :func:`randomize` and every
    study. Sign k of ``out[t]`` (row by row) is +1 when the top bit of
    32-bit half word k of ``raw[t]`` is set, low half first, and -1
    otherwise. An odd b*n leaves the last word's high half unread; no
    half is carried to the next draw. Read as an int32, a half is
    negative exactly when its top bit is set, so copysign gives -1 there
    and +1 elsewhere, and its negation is the sign; neither step makes
    an integer or float temporary. On a fresh generator, these are the
    signs numpy's ``Generator.integers`` draws over [0, 2) today.
    """
    _, b, n = out.shape
    halves = raw.astype("<u8", copy=False).view("<i4")[:, : b * n]
    np.copysign(1.0, halves.reshape(out.shape), out=out)
    return np.negative(out, out=out)


def reveal(
    sample: PotentialOutcomeSample, v: np.ndarray
) -> tuple[PairedExperiment, np.ndarray]:
    """Apply an assignment to a science table.

    Returns the observed experiment and the treated-minus-control
    differences Y. Signs of another shape raise LengthMismatch, an entry
    that is not +/-1 PairViolation (``pair_signs``). Internally
    cross-checks the observed-response construction against the
    level/effect identity Y_i = Delta_i + v_i (l_i1 - l_i2), whose Delta
    and l_i1 - l_i2 come from :func:`effects_and_gaps`, to 1e-12 of the
    response scale.
    """
    v = pair_signs(v, sample.n)
    if sample.x is None:
        raise DimensionMismatch(
            "science table has no observed covariates; cannot build an experiment"
        )
    effects, gaps = effects_and_gaps(sample.r_t, sample.r_c)
    z = np.empty((sample.n, 2), dtype=int)
    z[:, 0] = v > 0
    z[:, 1] = 1 - z[:, 0]
    observed = np.where(z == 1, sample.r_t, sample.r_c)
    y = v * (observed[:, 0] - observed[:, 1])
    scale = max(1.0, np.abs(observed).max(initial=0.0))
    if np.abs(y - (effects + v * gaps)).max(initial=0.0) > 1e-12 * scale:
        raise AssertionError("observed-response and level/effect Y constructions disagree")

    exp = PairedExperiment(x=sample.x, z=z, y=observed)
    return exp, y


def _kernel_inputs(
    r_t: np.ndarray,
    r_c: np.ndarray,
    x: Optional[np.ndarray],
    f: TransformSpec,
    g: TransformSpec,
) -> tuple[Whitened, np.ndarray, np.ndarray]:
    """What :func:`sign_stats` takes of a stack of tables: whitened blocks, effects and gaps.

    ``r_t`` and ``r_c`` are (T, n, 2) potential outcomes and ``x`` the
    (T, n, 2, P) covariates, or None for blocks of zero columns, which
    the mean alone takes. This is every mode's one build of its tables.
    The effects come first, so an outcome the kernel cannot take raises
    DataError before a transform can raise NonFiniteTransform.
    """
    effects, gaps = effects_and_gaps(r_t, r_c)
    if x is None:
        blocks = (np.empty(effects.shape + (0,)),) * 2
    else:
        blocks = transformed_blocks(x, f, g)
    return Whitened.of(*blocks), effects, gaps


def _table_stats(
    sample: PotentialOutcomeSample,
    times: Times,
    b: int,
    f: Optional[TransformSpec],
    g: Optional[TransformSpec],
    want: Sequence[str],
    draws: str = "draw",
    twins: bool = False,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """:func:`sign_stats` for one table and its ``b`` sign vectors, as (b,) arrays.

    ``times`` gives the products of the table's columns with its signs
    (``kernel.Times``). With ``twins`` each sign vector's negation is
    fitted too, and the arrays are (2b,), in ``sign_stats``'s order. The
    table is a stack of one, built by :func:`_kernel_inputs` as a study
    slab is; its covariates are left out when only the mean is wanted. A
    singular draw, named as ``draws``, raises (:func:`_refuse_singular`).
    """
    ident = TransformSpec.identity()
    x = sample.x[None] if any(est != "C" for est in want) else None
    tables = _kernel_inputs(sample.r_t[None], sample.r_c[None], x, f or ident, g or ident)
    stats = sign_stats(*tables, times, b, want, twins=twins)
    _refuse_singular(stats, draws)
    rows = {id(a): a[0] for pair in stats.values() for a in pair}  # one view per shared array
    return {est: (rows[id(tau)], rows[id(s2)]) for est, (tau, s2) in stats.items()}


def _refuse_singular(
    stats: Mapping[str, Sequence[np.ndarray]], draws: str, samples: Optional[Sequence[int]] = None
) -> None:
    """Every mode's one answer to a singular draw: raise RankDeficient.

    The estimators are defined only where [1 | v*d | m] is full rank,
    and the kernel gives NaN where a draw fails its pivot tests, so the
    first non-finite entry, in index order, of the (T, B) grids in
    ``stats`` refuses the run. Row t is sample ``samples[t]`` (the one
    table when None) and column j its ``draws`` j; the message counts
    that row's failing draws, so no other row can change it.
    """
    ok = reduce(np.logical_and, (np.isfinite(grid) for pair in stats.values() for grid in pair))
    if ok.all():
        return
    b = ok.shape[1]
    t, j = divmod(int(np.argmin(ok)), b)
    where = [] if samples is None else [f"sample {samples[t]}"]
    if samples is None or b > 1:
        where.append(f"{draws} {j}")
    count = "" if b == 1 else f" (singular under {b - np.count_nonzero(ok[t])} of {b} {draws}s)"
    raise RankDeficient(f"{', '.join(where)}: the regression design is rank deficient{count}")


class _HalfTables:
    """The sign products of one table under the codes below ``codes``, as ``kernel.Times``.

    Code c gives the first h = n // 2 pairs the signs of its low half
    code c & (2^h - 1) and the others those of its high half code
    c >> h, so the product of a fixed column with its signs is the sum
    of the products of the column's two halves with their signs. At
    the first part of a call this takes those products for every half
    code that is read: A_lo = C_lo S_lo' (T, P, 2^h) and
    A_hi = C_hi S_hi' (T, P, ceil(``codes`` / 2^h)), with C_lo and C_hi
    the columns' first h and last n - h entries and S_lo and S_hi the
    half codes' signs (:func:`assignment_signs`). An enumeration reads
    the codes below 2^(n-1), whose twins are the rest, so it takes half
    of the 2^(n-h) high half codes. The products of code c are then
    A_hi[..., c >> h] + A_lo[..., c & (2^h - 1)], one rounding each, so
    they depend neither on the part a code falls in nor on its width.
    A part is written in at most three sums: its codes before its first
    whole block of 2^h codes, its whole blocks at once, and the rest.
    No (2^n, n) sign array and no product of the columns with a part's
    signs is formed.
    """

    def __init__(self, n: int, codes: int) -> None:
        self._low = n // 2
        self._codes = codes
        self._lo = self._hi = np.empty((0, 0, 0))

    def __call__(self, columns: np.ndarray, rows: slice, part: slice, out: np.ndarray) -> None:
        low = self._low
        size = 1 << low
        if part.start == 0:
            high = columns.shape[-1] - low
            self._lo = columns[..., :low] @ assignment_signs(np.arange(size), low).T
            read = np.arange(-(-self._codes // size))  # the high half codes read
            self._hi = columns[..., low:] @ assignment_signs(read, high).T
        at = part.start
        while at < part.stop:
            hi, lo = divmod(at, size)
            blocks = 0 if lo else (part.stop - at) // size
            dest = out[..., at - part.start :]
            if blocks:
                dest = dest[..., : blocks * size].reshape(dest.shape[:-1] + (blocks, size))
                np.add(self._hi[..., hi : hi + blocks, None], self._lo[..., None, :], out=dest)
                at += blocks * size
            else:
                width = min(part.stop, (hi + 1) * size) - at
                np.add(self._hi[..., hi, None], self._lo[..., lo : lo + width], out=dest[..., :width])
                at += width


@dataclass(frozen=True)
class EstimatorSummary:
    """Summary of one estimator over a set of assignments, none of them singular.

    Each field is a Python number for one set, or an array with one
    entry per set when :func:`_summarize` reduced a stack of them.
    """

    mean: float
    variance: float
    rmse: float
    coverage: float
    mean_se: float
    mean_s2: float


def _summarize(
    tau: np.ndarray, s2: np.ndarray, target: float | np.ndarray, alpha: float
) -> EstimatorSummary:
    """Moments, RMSE and interval coverage against ``target``, over the last axis.

    ``tau`` and ``s2`` are (..., B): B assignments for each index of the
    leading shape, which ``target`` broadcasts over and every field of
    the result has. A 1-D call gives Python numbers. Every mode refuses
    a singular draw before it gets here (:func:`_refuse_singular`), so
    every entry counts; each row reduces bit for bit as it does alone.
    """
    b = tau.shape[-1]
    # Work in place where a value is used once: at 2^16 draws each fresh
    # temporary costs about as much as the arithmetic on it.
    mean = tau.sum(axis=-1) / b
    dev = tau - mean[..., None]
    variance = np.square(dev, out=dev).sum(axis=-1) / b
    miss = np.subtract(tau, np.asarray(target)[..., None], out=dev)
    se = np.sqrt(s2)
    mean_se = se.sum(axis=-1) / b
    half = np.multiply(se, normal_quantile(1.0 - alpha / 2.0), out=se)
    hit = np.abs(miss, out=miss) <= half
    fields = (
        mean,
        variance,
        np.sqrt(np.square(miss, out=miss).sum(axis=-1) / b),
        np.count_nonzero(hit, axis=-1) / b,
        mean_se,
        s2.sum(axis=-1) / b,
    )
    if tau.ndim == 1:
        return EstimatorSummary(*map(float, fields))
    return EstimatorSummary(*fields)


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
    alone when no transform is given. Code 2^n - 1 - c has the signs of
    code c negated, so the same design, and its response is Delta minus
    the signs times the level gaps: the kernel fits the codes below
    2^(n-1) each with its twin as a second response, from one product
    of the fixed columns with its signs and one factorization of its
    design (``sign_stats`` with ``twins``), and each lands in its own
    code's column. Round-to-nearest is symmetric, so where BLAS sums
    every column of a half table in the same order, the half-table
    products of a code and of its twin are exact negations, and the
    values are bit for bit those of fitting all 2^n codes one response
    each from the same products (the tests check this). Every sign
    product comes from two half tables (:class:`_HalfTables`), so no
    (2^n, n) sign array is made and no product of columns with a chunk
    of signs is taken; the values differ from those of such products by
    roundoff only (worst relative drift 5.8e-16 over the n = 16
    summaries of ``tools/report_drift.py``) and do not depend on the
    kernel's grid budget. Raises TooLarge beyond the cap (default 16 pairs, 65536
    assignments), then what the rule raises, and RankDeficient when any
    assignment gives a singular design.
    """
    alpha, cap = as_alpha(alpha, "alpha"), int_at_least(cap, 1, "cap")
    n = sample.n
    if n > cap:
        raise TooLarge(f"2^{n} assignments exceed the cap of 2^{cap}")
    want = design_estimators(n, sample.p, f, g)
    half = 2 ** (n - 1)
    stats = _table_stats(sample, _HalfTables(n, half), half, f, g, want, "assignment code",
                         twins=True)
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
    effect, recorded as ``target``. Raises BadArgument for b < 1, alpha
    outside (0, 1) or an unknown estimator name before any draw, what
    :func:`design_estimators` raises, ConfigError for a regression
    estimator without transforms, WrongEstimator for one the rule does
    not allow, and RankDeficient when any drawn assignment gives a
    singular design.
    """
    b, alpha = int_at_least(b, 1, "b"), as_alpha(alpha, "alpha")
    est_ids = tuple(one_of(est, ESTIMATOR_IDS, "estimator") for est in estimators)
    if rng is None:
        rng = np.random.default_rng()
    allowed = design_estimators(sample.n, sample.p, f, g)
    if any(est not in allowed for est in est_ids):
        if allowed == ("C",):
            raise ConfigError("regression estimators need transforms")
        raise WrongEstimator("superpopulation-corrected variance needs at least one m column")
    stats = _table_stats(sample, times_of(randomize(sample.n, rng, b)[None]), b, f, g, est_ids)
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
    """``config`` with each field through its cast (``errors``), then the study-wide rules."""
    counts = {name: int_at_least(getattr(config, name), 1, name)
              for name in ("n", "samples", "randomizations", "workers")}
    config = replace(
        config,
        mode=one_of(config.mode, ("sate", "pate"), "mode"),
        setting=one_of(config.setting, SETTINGS, "setting"),
        alpha=as_alpha(config.alpha, "alpha"),
        seed=int_at_least(config.seed, 0, "seed"),
        **counts,
    )
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
    """The sample and assignment streams of a slab's sample indices, read in order.

    Index i draws its table's normals from ``substream(seed, ROLE_SAMPLE,
    i)`` and its B = ``config.randomizations`` assignments from
    ``substream(seed, ROLE_ASSIGN, i)``. Each role is read on from the
    first index it has not read yet, so a slab reads the normals of its
    tables at once and then their signs one kernel pass at a time. Row
    t of the normals is what :func:`generate_sample` draws from the
    same stream, drawn in place. The signs are read as
    ceil(B*n/2) raw words per index and decoded by
    :func:`_signs_of_words`, the decoder :func:`randomize` uses too, a
    group of tables at a time (:meth:`times`), so they are what
    ``randomize(n, substream(seed, ROLE_ASSIGN, i), B)`` draws. The
    streams are read through :func:`substreams`, which draws
    what those ``substream`` calls draw. Each role is opened once for
    the slab, so its keys are hashed in one pass whatever the pass
    sizes.
    """

    def __init__(self, config: StudyConfig, idxs: Sequence[int]) -> None:
        self._n, self._b = config.n, config.randomizations
        self._sample = substreams(config.seed, ROLE_SAMPLE, idxs)
        self._assign = substreams(config.seed, ROLE_ASSIGN, idxs)
        self._words = (self._b * self._n + 1) // 2
        self._raw = np.empty((0, self._words), dtype=np.uint64)
        self._signs = np.empty((0, self._b, self._n))

    def normals(self, count: int) -> np.ndarray:
        """The (count, 10n) normals of the next ``count`` indices."""
        out = np.empty((count, 10 * self._n))
        for j, rng in enumerate(islice(self._sample, count)):
            rng.standard_normal(out=out[j])
        return out

    def signs(self, count: int) -> np.ndarray:
        """The (count, B, n) signs of the next ``count`` indices.

        The array is a view of a buffer the streams keep, as are the raw
        words it is decoded from. Both are allocated when a call asks for
        more indices than any before it, so a slab allocates them once,
        for its first and largest group (see :meth:`times`), and does not
        fault in fresh pages for every kernel pass. The array stays valid
        until the next call, which overwrites it.
        """
        if len(self._raw) < count:
            self._raw = np.empty((count, self._words), dtype=np.uint64)
            self._signs = np.empty((count, self._b, self._n))
        raw = self._raw[:count]
        for row, rng in zip(raw, islice(self._assign, count)):
            row[:] = rng.bit_generator.random_raw(self._words)
        return _signs_of_words(raw, self._signs[:count])

    def times(self, columns: np.ndarray, rows: slice, part: slice, out: np.ndarray) -> None:
        """The sign products of the next ``len(columns)`` tables, into ``out``, as :data:`kernel.Times`.

        :func:`sign_stats` asks for its tables in order, so the streams
        read on and ``rows`` only names the tables. Their signs are read
        by :meth:`signs` a group of tables at a time, each group's
        product taken while its signs are still in cache: a group holds
        at most ``kernel.CHUNK`` sign values, at least one table, so one
        table at n = 100, B = 200 and 163 at n = 25, B = 1. The tables
        are read when the first part of their draws is asked for; only a
        lone table whose B exceeds ``kernel.CHUNK`` is asked for more
        parts, which reuse its signs.
        """
        group = max(1, kernel.CHUNK // (self._b * self._n))
        for lo in range(0, len(columns), group):
            tables = columns[lo : lo + group]
            signs = self.signs(len(tables)) if part.start == 0 else self._signs[: len(tables)]
            np.matmul(tables, signs[:, part].swapaxes(-1, -2), out=out[lo : lo + group])


def _split(count: int, parts: int) -> list[range]:
    """``range(count)`` cut into ``parts`` contiguous ranges whose lengths differ by at most one."""
    return [range(count * k // parts, count * (k + 1) // parts) for k in range(parts)]


def _concat(parts: Sequence[Mapping[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Metric columns of consecutive slabs, joined in order."""
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


def _study_block(config: StudyConfig, idxs: Sequence[int]) -> dict[str, np.ndarray]:
    """Metric columns of the slab of sample indices ``idxs``, in order.

    Each index's table and B assignments come from its own substreams
    (see :class:`_StudyStreams`), so a value does not depend on the
    slab it is computed in. The slab's tables are built as stacked
    arrays, bit for bit the tables :func:`generate_sample` draws from
    the same streams, and then by :func:`_kernel_inputs` once, after
    which the outcomes and covariates are dropped. The tables meet
    their signs in one kernel call, through :func:`_sate_columns` or
    :func:`_pate_columns` by ``config.mode``. When a transform is not
    finite on the stack, the tables are built and computed one at a
    time, in order, so the first failing table raises what it raises
    alone: which transform fails first may differ between it and the
    stack, and an earlier table, in either mode, may fail the rank test.
    Transforms act entry by entry, so some table fails alone.
    """
    streams = _StudyStreams(config, idxs)
    step = _sate_columns if config.mode == "sate" else _pate_columns
    # Fortran order puts the table axis innermost; every step of the build keeps it.
    r_t, r_c, x = stacked_tables(np.asfortranarray(streams.normals(len(idxs))), config.setting)[1:]
    try:
        tables = _kernel_inputs(r_t, r_c, x, config.f, config.g)
    except NonFiniteTransform:
        for j in range(len(idxs)):
            one = slice(j, j + 1)
            tables = _kernel_inputs(r_t[one], r_c[one], x[one], config.f, config.g)
            step(config, idxs[one], *tables, streams.times)
        raise
    del r_t, r_c, x
    return step(config, idxs, *tables, streams.times)


def _sate_columns(
    config: StudyConfig, idxs: Sequence[int], blocks: Whitened, effects: np.ndarray,
    gaps: np.ndarray, times: Times,
) -> dict[str, np.ndarray]:
    """In-sample metrics of the tables ``idxs`` over their B draws: one kernel call.

    The tables, given as :func:`_kernel_inputs` builds them, meet their
    B signs each, whose products ``times`` gives, together in
    :func:`sign_stats`, and each estimator's (T, B) grid is summarized
    in one call against each table's own average effect, once no draw
    is singular (:func:`_refuse_singular`).
    """
    b = config.randomizations
    stats = sign_stats(blocks, effects, gaps, times, b, ("C", "R1", "R2"))
    _refuse_singular(stats, "draw", idxs)
    sates = effects.mean(axis=-1)
    c, r1, r2 = (_summarize(tau, s2, sates, config.alpha) for tau, s2 in stats.values())
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
    config: StudyConfig, idxs: Sequence[int], blocks: Whitened, effects: np.ndarray,
    gaps: np.ndarray, times: Times,
) -> dict[str, np.ndarray]:
    """Estimates and standard errors of the tables ``idxs``, one draw each: one kernel call.

    Every estimate, the mean's too, comes from :func:`sign_stats` on
    the tables as :func:`_kernel_inputs` builds them, under one draw
    per table, whose products ``times`` gives; Y is never formed. The
    first table in order whose draw is singular raises RankDeficient
    naming its sample (:func:`_refuse_singular`).
    """
    grids = sign_stats(blocks, effects, gaps, times, 1, ("C", "R1", "R2", "R2P"))
    _refuse_singular(grids, "draw", idxs)
    # The estimates are copied out of the kernel's workspace, which they
    # would otherwise keep alive until the study joins its slabs.
    stats = {est: (tau[:, 0].copy(), s2[:, 0]) for est, (tau, s2) in grids.items()}
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
        config = {f.name: getattr(c, f.name) for f in fields(c) if f.name != "workers"}
        config.update(f=c.f.to_dict(), g=c.g.to_dict())
        return {"config": config, "metrics": dict(self.metrics)}

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
    aggregated in index order. The S indices are cut once into
    contiguous slabs whose sizes differ by at most one: the fewest of at
    most ``_STUDY_PAIRS`` pairs each (at least one table), their count
    rounded up to a multiple of k = min(workers, S) and capped at S, so
    that k threads share them evenly. The slabs are computed on a pool
    of k threads and read back in index order, so a failing study
    raises what the first failing slab raises, for its first failing
    sample. Slabs not started by then are cancelled, and the pool has
    ended when this returns or raises.
    """
    config = _validate_config(config)
    if config.mode == "pate":
        config = replace(config, randomizations=1)
    workers = min(config.workers, config.samples)
    fewest = -(-config.samples // max(1, _STUDY_PAIRS // config.n))
    slabs = _split(config.samples, min(config.samples, -(-fewest // workers) * workers))
    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        columns = _concat(list(pool.map(partial(_study_block, config), slabs)))

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
    sd = {e: float(tau[e].std(ddof=1)) for e in tau}
    out: dict[str, object] = {}
    for e in ("C", "R1", "R2", "R2P"):
        out[f"coverage_{e}"] = float((np.abs(tau[e]) <= z * se[e]).mean())
    for e in ("C", "R1", "R2", "R2P"):
        out[f"se_sd_ratio_{e}"] = float(se[e].mean()) / sd[e]
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
    Each repetition's design [signs*d | m | 1] is factored once, by
    ``ols_core.whiten``, whose pivot share of the ones column is the
    residual's e'(I - H)e / n. Raises what :func:`design_estimators`
    raises for the design, and RankDeficient when a column fails the
    pivot test, as when the ones vector lies in the span of [signs*d | m].
    """
    reps = int_at_least(reps, 1, "reps")
    design_estimators(sample.n, sample.p, f, g)
    if signs is None and rng is None:
        rng = np.random.default_rng()
    d, m = transformed_blocks(sample.x, f, g)
    n = sample.n
    if signs is None:
        v = randomize(n, rng, reps)
    else:
        v = np.broadcast_to(pair_signs(signs, n), (reps, n))
    # (v*d)'m = sum_i v_i d_i m_i', one row of sign products per repetition.
    cross = (d[:, :, None] * m[:, None, :]).reshape(n, -1)
    off = np.abs(v @ cross).max(axis=-1, initial=0.0) / n
    columns = (v[:, :, None] * d, np.broadcast_to(m, (reps, *m.shape)), np.ones((reps, n, 1)))
    _, passed, ratios, _, _ = whiten(np.concatenate(columns, axis=-1))
    share = np.where(passed.all(axis=-1), ratios[:, -1], np.nan)
    _refuse_singular({"R2": (share[None],)}, "repetition")
    resid = np.abs(share - 1.0)
    return LemmaDiagnostics(n=n, reps=reps, off_block=off, ones_residual=resid)
