"""One argument contract for the library and the command line.

Every range rule on an argument is written once, as a cast in
``paired_adjust.errors``; the public entry points and the CLI's option
table call those casts before any work. An argument outside its range
raises ``BadArgument`` (``BadAlpha`` for a miscoverage level), which is
a ConfigError (exit 4) and a ValueError, before a design is factored
(``ols_core.whiten``) or any fit is made (``kernel.sign_stats``).
"""

import ast
import contextlib
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paired_adjust
from paired_adjust import (
    BadAlpha,
    BadArgument,
    ConfigError,
    DataError,
    DimensionMismatch,
    PairedAdjustError,
    PairedExperiment,
    PairViolation,
    StudyConfig,
    TransformSpec,
    assignment_signs,
    build_design,
    confidence_interval,
    draw_pair_covariates,
    enumerate_exact,
    estimate_classical,
    estimate_r1,
    estimate_r2,
    generate_sample,
    intercept_variance_hc,
    least_squares,
    lemma_diagnostics,
    normal_quantile,
    randomize,
    response_surfaces,
    reveal,
    run_monte_carlo,
    run_study,
    substream,
)
from paired_adjust import errors, experiment_model, kernel, ols_core
from paired_adjust import randomization_engine as engine
from paired_adjust.cli import _OPTION_TABLES, parse_transform
from paired_adjust.dgp import SETTINGS
from paired_adjust.estimators import FLAVORS
from paired_adjust.rng import ROLE_ASSIGN, ROLE_SAMPLE

from conftest import make_design, make_sample

PACKAGE = Path(paired_adjust.__file__).resolve().parent
CASTS = ("strict_int", "int_at_least", "distinct_ints", "as_alpha", "one_of", "optional")


def _module(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _raised_names(tree: ast.Module):
    """(top-level function or None, name of the raised class) for every raise of a named class."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    yield owner, exc.id


def test_every_range_rule_is_a_cast_in_errors():
    value_errors, outside = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, name in _raised_names(_module(path)):
            if name == "ValueError":
                value_errors.append(f"{path.name}: {owner}")
            if name in ("BadArgument", "BadAlpha") and (
                path.name != "errors.py" or owner not in CASTS
            ):
                outside.append(f"{path.name}: {owner} raises {name}")
    assert value_errors == []
    assert outside == []


def test_the_option_table_casts_only_with_the_library_casts():
    allowed = {str, parse_transform} | {getattr(errors, name) for name in CASTS}
    for command, table in _OPTION_TABLES.items():
        for name, opt in table.items():
            assert getattr(opt.cast, "func", opt.cast) in allowed, f"{command} --{name}"
    # cli.py defines no cast of its own: no function nested in another, no lambda.
    for top in _module(PACKAGE / "cli.py").body:
        if isinstance(top, ast.FunctionDef):
            inner = [node for node in ast.walk(top) if node is not top
                     and isinstance(node, (ast.FunctionDef, ast.Lambda))]
            assert inner == [], top.name


def test_bad_argument_is_a_config_error_and_a_value_error():
    assert issubclass(BadArgument, ConfigError) and issubclass(BadArgument, ValueError)
    assert issubclass(BadAlpha, BadArgument)
    assert BadArgument("x").exit_code == BadAlpha("x").exit_code == 4


@contextlib.contextmanager
def _fits_reached():
    """Count calls of ``kernel.sign_stats`` and of ``ols_core.whiten`` where each is bound."""
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    with contextlib.ExitStack() as stack:
        for module, name in [(engine, "sign_stats"), (kernel, "whiten"),
                             (ols_core, "whiten"), (experiment_model, "whiten")]:
            stack.enter_context(mock.patch.object(module, name, counting(getattr(module, name))))
        yield calls


# The test's own reading of each rule, so the casts are checked against it.
def _as_int(v):
    if isinstance(v, bool):
        return None
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        return int(v) if v.is_integer() else None
    if isinstance(v, str):
        with contextlib.suppress(ValueError):
            return int(v)
    return None


def _ints(low, high=math.inf, none=False):
    def ok(v):
        i = _as_int(v)
        return none if v is None else i is not None and low <= i <= high
    return ok


def _level(top=False, two_sided=True):
    def ok(v):
        if isinstance(v, bool) or v is None:
            return False
        try:
            a = float(v)
        except ValueError:
            return False
        # A two-sided level's quantile level 1 - a/2 must stay below 1.
        return (0 < a < 1 or (top and a == 1)) and not (two_sided and 1 - a / 2 == 1)
    return ok


def _choice(*names):
    return lambda v: isinstance(v, str) and v in names


_SAMPLE = make_sample(np.random.default_rng(3), 12)
_SMALL = make_sample(np.random.default_rng(4), 6)
_DESIGN = make_design(np.random.default_rng(5), 20)
_FIT = least_squares(_DESIGN.vd, _DESIGN.y)
_REPORT = estimate_r1(_DESIGN)
_SELECT = TransformSpec.select([1, 2])


def _study(**field):
    base = dict(mode="sate", setting="parallel", n=12, samples=2, randomizations=2, workers=1)
    return run_study(StudyConfig(**{**base, **field}))


# (call with the drawn value, whether the value lies in the argument's range)
CASES = {
    "generate_sample n": (lambda v: generate_sample(v, "parallel", seed=1), _ints(1)),
    "generate_sample setting": (lambda v: generate_sample(4, v, seed=1), _choice(*SETTINGS)),
    "generate_sample seed": (lambda v: generate_sample(4, "parallel", seed=v), _ints(0, none=True)),
    "draw_pair_covariates n": (lambda v: draw_pair_covariates(v, substream(1, ROLE_SAMPLE)), _ints(1)),
    "response_surfaces setting": (lambda v: response_surfaces(np.zeros((3, 4)), v),
                                  _choice(*SETTINGS)),
    "substream seed": (lambda v: substream(v, ROLE_SAMPLE), _ints(0)),
    "randomize n": (lambda v: randomize(v, substream(2, ROLE_ASSIGN)), _ints(0)),
    "randomize b": (lambda v: randomize(3, substream(2, ROLE_ASSIGN), v), _ints(1, none=True)),
    "assignment_signs n": (lambda v: assignment_signs(np.arange(4), v), _ints(0, 64)),
    "TransformSpec kind": (lambda v: TransformSpec(v), _choice("identity", "log", "exp")),
    "TransformSpec.power degree": (lambda v: TransformSpec.power(v), _ints(1)),
    "TransformSpec.select columns": (lambda v: TransformSpec.select((v,)), _ints(1)),
    "estimate_r1 flavor": (lambda v: estimate_r1(_DESIGN, v), _choice(*FLAVORS)),
    "estimate_r2 flavor": (lambda v: estimate_r2(_DESIGN, v), _choice(*FLAVORS)),
    "intercept_variance_hc variant": (lambda v: intercept_variance_hc(_FIT, v),
                                      _choice("HC2", "HC3")),
    "confidence_interval alpha": (lambda v: confidence_interval(_REPORT, v), _level(top=True)),
    "normal_quantile p": (normal_quantile, _level(two_sided=False)),
    "enumerate_exact alpha": (lambda v: enumerate_exact(_SMALL, alpha=v), _level()),
    "enumerate_exact cap": (lambda v: enumerate_exact(_SMALL, cap=v), _ints(1)),
    "run_monte_carlo b": (lambda v: run_monte_carlo(_SAMPLE, v, rng=substream(3, ROLE_ASSIGN)),
                          _ints(1)),
    "run_monte_carlo alpha": (
        lambda v: run_monte_carlo(_SAMPLE, 4, alpha=v, rng=substream(3, ROLE_ASSIGN)), _level()),
    "run_monte_carlo estimator": (
        lambda v: run_monte_carlo(_SAMPLE, 4, estimators=(v,), rng=substream(3, ROLE_ASSIGN)),
        _choice("C", "R1", "R2", "R2P")),
    "lemma_diagnostics reps": (
        lambda v: lemma_diagnostics(_SAMPLE, _SELECT, _SELECT, v, rng=substream(4, ROLE_ASSIGN)),
        _ints(1)),
    "run_study mode": (lambda v: _study(mode=v), _choice("sate", "pate")),
    "run_study setting": (lambda v: _study(setting=v), _choice(*SETTINGS)),
    "run_study n": (lambda v: _study(n=v), _ints(1)),
    "run_study samples": (lambda v: _study(samples=v), _ints(1)),
    "run_study randomizations": (lambda v: _study(randomizations=v), _ints(1)),
    "run_study alpha": (lambda v: _study(alpha=v), _level()),
    "run_study seed": (lambda v: _study(seed=v), _ints(0)),
    "run_study workers": (lambda v: _study(workers=v), _ints(1)),
}

# Negative, zero, non-integral, boolean, NaN and text values, and a few in
# range. Sizes stay small, so an accepted value runs in milliseconds.
VALUES = st.one_of(
    st.sampled_from([-1, 0, 1, 2, 3, 3.0, 2.5, 0.05, 0.5, 1.0, 1.5, 64, 65, True, False, None,
                     math.nan, math.inf, -math.inf, "3", " 2 ", "0.5", "x", "", "nan",
                     "HC2", "parallel", "sate", "log", "R2P"]),
    st.integers(-3, 70),
    st.floats(-3, 70),
    st.text(max_size=2),
)


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(value=VALUES)
def test_every_entry_point_casts_its_arguments_before_any_fit(case, value):
    call, in_range = CASES[case]
    with _fits_reached() as reached, warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(value)
        except PairedAdjustError as exc:
            refused = exc
        else:
            refused = None
    if in_range(value):
        assert not isinstance(refused, BadArgument), refused
    else:
        assert isinstance(refused, BadArgument), f"{case} took {value!r}"
        assert reached == []


_PROBES = {
    "enumerate_exact alpha 2": lambda: enumerate_exact(_SMALL, alpha=2.0),
    "enumerate_exact alpha 1e-20": lambda: enumerate_exact(_SMALL, alpha=1e-20),
    "generate_sample n 2.5": lambda: generate_sample(2.5, "parallel", seed=1),
    "generate_sample seed 1.5": lambda: generate_sample(4, "parallel", seed=1.5),
    "generate_sample seed True": lambda: generate_sample(4, "parallel", seed=True),
    "StudyConfig samples 2.5": lambda: _study(samples=2.5),
    "StudyConfig workers True": lambda: _study(workers=True),
    "power 2.5": lambda: TransformSpec.power(2.5),
    "power True": lambda: TransformSpec(kind="power", degree=True),
    "select 1.5": lambda: TransformSpec.select((1.5,)),
    "select repeated": lambda: TransformSpec.select([1, 1]),
    "degree on log": lambda: TransformSpec("log", degree=2),
    "lemma reps 2.5": lambda: lemma_diagnostics(_SAMPLE, _SELECT, _SELECT, 2.5),
    "randomize b -1": lambda: randomize(3, substream(1, ROLE_ASSIGN), -1),
    "randomize MT19937": lambda: randomize(3, np.random.Generator(np.random.MT19937(1))),
    "assignment_signs n 65": lambda: assignment_signs(np.arange(4), 65),
    "assignment_signs n -1": lambda: assignment_signs(np.arange(4), -1),
}


@pytest.mark.parametrize("probe", sorted(_PROBES))
def test_probed_bad_arguments_are_refused_before_any_fit(probe):
    with _fits_reached() as reached, pytest.raises(BadArgument):
        _PROBES[probe]()
    assert reached == []


def test_assignment_signs_decodes_every_width_up_to_64():
    codes = np.array([0, 1, 2**63 - 1, -1])
    full = assignment_signs(codes, 64)
    assert full.shape == (4, 64)
    assert (full[0] == -1).all() and (full[3] == 1).all()
    assert full[1, 0] == 1 and (full[1, 1:] == -1).all()
    assert (full[2, :63] == 1).all() and full[2, 63] == -1
    assert assignment_signs(codes, 0).shape == (4, 0)


def test_estimate_classical_refuses_what_is_not_one_finite_value_per_pair():
    with pytest.raises(DataError, match="non-finite"):
        estimate_classical(np.array([1.0, math.nan, 2.0]))
    with pytest.raises(DimensionMismatch):
        estimate_classical(np.ones((3, 3)))


_EXPERIMENT, _ = reveal(_SAMPLE, np.where(np.arange(_SAMPLE.n) % 3, 1.0, -1.0))


def _with_nan_flag():
    z = _EXPERIMENT.z.astype(float)
    z[4, 0] = math.nan
    return PairedExperiment(_EXPERIMENT.x, z, _EXPERIMENT.y)


_ARRAY_PROBES = {
    "text pair ids": (lambda: PairedExperiment(_EXPERIMENT.x, _EXPERIMENT.z, _EXPERIMENT.y,
                                               pair_ids=tuple("abcdefghijkl")), BadArgument),
    "NaN flag": (_with_nan_flag, PairViolation),
    "transform named by text": (lambda: build_design(_EXPERIMENT, "identity", "identity"),
                                BadArgument),
}


@pytest.mark.parametrize("probe", sorted(_ARRAY_PROBES))
def test_array_and_transform_arguments_raise_the_library_classes(probe):
    # Each used to escape the contract: a plain ValueError from int('a'),
    # a RuntimeWarning from casting NaN to int, an AttributeError on a str.
    call, raised = _ARRAY_PROBES[probe]
    with warnings.catch_warnings(), pytest.raises(raised):
        warnings.simplefilter("error")
        call()


def test_signs_and_shapes_raise_the_data_classes():
    with pytest.raises(PairViolation):
        reveal(_SAMPLE, np.full(_SAMPLE.n, 0.5))
    with pytest.raises(PairViolation):
        lemma_diagnostics(_SAMPLE, _SELECT, _SELECT, 2, signs=np.full(_SAMPLE.n, 0.5))
    with pytest.raises(DimensionMismatch):
        least_squares(np.ones((5, 1)), np.ones(4))
