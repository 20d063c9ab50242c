"""Exception taxonomy and argument contract shared across the package.

Every error raised by the library derives from :class:`PairedAdjustError`
so callers (notably the CLI) can map failures onto a stable exit-code
contract: 2 for parse/validation problems, 3 for rank or degeneracy
failures, 4 for configuration mistakes, 5 for oversized enumerations.
Files are part of the contract: through ``experiment_model.read_source``
and ``writing``, an input that cannot be opened or read as UTF-8 raises
DataError and an output that cannot be written ConfigError, never an
OSError or UnicodeDecodeError.

The argument contract: every public entry point and every CLI option
passes its scalar arguments through the casts below before any work,
so each range rule is written once. A bad argument raises BadArgument,
a ConfigError (exit 4) that is also a ValueError; a bad level raises
its subclass BadAlpha. Bad data raises a DataError instead: a
non-finite value, DimensionMismatch for a shape, PairViolation for a
sign that is not +/-1.
"""

from __future__ import annotations

import contextlib
import numbers
from collections.abc import Iterable
from typing import Any, Optional

import numpy as np


class PairedAdjustError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class DataError(PairedAdjustError):
    """Malformed or inconsistent input data."""

    exit_code = 2


class MalformedRow(DataError):
    """A CSV row could not be parsed (wrong arity, bad number, missing value)."""


class PairViolation(DataError):
    """A pair does not have exactly two units with one treated and one control."""


class DimensionMismatch(DataError):
    """Covariate vectors do not share a common dimension."""


class TooFewPairs(DataError):
    """Not enough pairs for the requested design or estimator."""


class NonFiniteTransform(DataError):
    """A covariate transform produced NaN or infinity."""


class LengthMismatch(DataError):
    """An assignment vector does not match the number of pairs."""


class NumericalError(PairedAdjustError):
    """Rank deficiency or degeneracy detected during estimation."""

    exit_code = 3


class RankDeficient(NumericalError):
    """Design matrix is numerically rank deficient."""


class DegenerateDenominator(NumericalError):
    """The intercept-variance denominator is numerically zero."""


class LeverageOne(NumericalError):
    """A leverage value reached one, so HC weights are undefined."""


class ConfigError(PairedAdjustError):
    """Invalid run configuration."""

    exit_code = 4


class BadArgument(ConfigError, ValueError):
    """An argument outside its stated range; also a ValueError."""


class BadAlpha(BadArgument):
    """Confidence level outside the accepted range."""


class WrongEstimator(ConfigError):
    """An operation was applied to a report of the wrong estimator."""


class TooLarge(PairedAdjustError):
    """Exact enumeration was requested for more pairs than the cap allows."""

    exit_code = 5


def _named(name: str, text: str) -> str:
    return f"{name}: {text}" if name else text


def strict_int(value: object, name: str = "") -> int:
    """``value`` as an int: an integer, an integral real number or integer text, not a boolean."""
    if type(value) is int:  # a plain int needs no check; per-id casts of 2000 pairs took 3 ms
        return value
    with contextlib.suppress(ValueError, OverflowError):
        if isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral):
            if float(value).is_integer():
                return int(value)
        elif isinstance(value, (str, numbers.Integral)) and not isinstance(value, bool):
            return int(value)
    raise BadArgument(_named(name, f"expected an integer, got {value!r}"))


def float_array(value: object, name: str) -> np.ndarray:
    """``value`` as a float array; DataError naming ``name`` for text, objects or complex numbers."""
    a = np.asarray(value)
    if a.dtype.kind not in "biuf":
        raise DataError(f"{name} must hold real numbers, got an array of {a.dtype}")
    return a.astype(float, copy=False)


def int_at_least(value: object, low: int, name: str = "", high: Optional[int] = None) -> int:
    """``value`` through :func:`strict_int`, refused below ``low`` or, when given, above ``high``."""
    out = strict_int(value, name)
    if out < low:
        raise BadArgument(_named(name, f"must be >= {low}, got {out}"))
    if high is not None and out > high:
        raise BadArgument(_named(name, f"{out} exceeds {high}"))
    return out


def distinct_ints(values: object, low: int, name: str = "") -> tuple[int, ...]:
    """A sequence of integers, each through :func:`int_at_least`, with no value twice."""
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise BadArgument(_named(name, f"expected a sequence of integers, got {values!r}"))
    out = tuple(int_at_least(v, low, name) for v in values)
    if len(set(out)) != len(out):
        raise BadArgument(_named(name, f"must be distinct, got {list(out)}"))
    return out


def as_alpha(value: object, name: str = "", upto_one: bool = False, two_sided: bool = True) -> float:
    """A level as a float in (0, 1), or in (0, 1] with ``upto_one``; raises BadAlpha.

    A two-sided miscoverage level must also leave its quantile level
    1 - alpha/2 below 1 in floating point, which takes alpha > 2^-53.
    """
    alpha = None
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        alpha = float(value)  # type: ignore[arg-type]
    if alpha is None or isinstance(value, bool):
        raise BadAlpha(_named(name, f"expected a number, got {value!r}"))
    if not (0 < alpha < 1 or (upto_one and alpha == 1)):
        raise BadAlpha(_named(name, f"must be in (0, {'1]' if upto_one else '1)'}, got {alpha}"))
    if two_sided and 1.0 - alpha / 2.0 == 1.0:
        raise BadAlpha(_named(name, f"is too small for 1 - alpha/2 to be below 1, got {alpha}"))
    return alpha


def one_of(value: object, choices: tuple, name: str = "") -> Any:
    """The entry of ``choices`` that ``value`` equals and is an instance of the type of."""
    for choice in choices:
        if isinstance(value, type(choice)) and value == choice:
            return choice
    raise BadArgument(_named(name, f"expected one of {', '.join(map(str, choices))}, got {value!r}"))


def optional(value: object, kind: type, name: str = "") -> Any:
    """``value`` when it is None or an instance of ``kind``."""
    if value is None or isinstance(value, kind):
        return value
    raise BadArgument(_named(name, f"expected a {kind.__name__}, got {value!r}"))
