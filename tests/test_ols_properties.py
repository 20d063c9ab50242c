"""Property tests for the intercept and its variances from least_squares.

The intercept and its classical, HC2 and HC3 variances must not depend
on covariate units or on row order, and must match the explicit
normal-equation oracles on random full-rank designs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paired_adjust import (
    intercept_variance_classical,
    intercept_variance_hc,
    least_squares,
)

from oracles import (
    classical_intercept_var_oracle,
    fit_oracle,
    hc_intercept_var_oracle,
)

RTOL = 1e-9
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def designs(draw):
    """(x, y, rng): n pairs by k covariates with a shifted mean, n >= k + 3."""
    k = draw(st.integers(0, 5))
    n = draw(st.integers(k + 3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, k)) + draw(st.floats(-5.0, 5.0))
    y = draw(st.floats(0.1, 10.0)) * rng.standard_normal(n)
    return x, y, rng


def intercept_stats(x, y):
    """(intercept, classical, HC2, HC3) from one library fit."""
    fit = least_squares(x, y)
    return (
        float(fit.coefficients[0]),
        intercept_variance_classical(fit),
        intercept_variance_hc(fit, "HC2"),
        intercept_variance_hc(fit, "HC3"),
    )


def assert_same_stats(got, want, y):
    assert got[0] == pytest.approx(want[0], rel=RTOL, abs=RTOL * np.abs(y).max())
    for g, w in zip(got[1:], want[1:]):
        assert g == pytest.approx(w, rel=RTOL)


@PROPERTY
@given(designs(), st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5))
def test_invariant_to_positive_column_rescaling(design, exponents):
    x, y, _ = design
    scales = 10.0 ** np.array(exponents[: x.shape[1]])
    assert_same_stats(intercept_stats(x * scales, y), intercept_stats(x, y), y)


@PROPERTY
@given(designs())
def test_invariant_to_row_permutation(design):
    x, y, rng = design
    perm = rng.permutation(y.shape[0])
    assert_same_stats(intercept_stats(x[perm], y[perm]), intercept_stats(x, y), y)


@PROPERTY
@given(designs())
def test_matches_normal_equation_oracles(design):
    x, y, _ = design
    beta, _, _ = fit_oracle(np.column_stack([np.ones(y.shape[0]), x]), y)
    want = (
        float(beta[0]),
        classical_intercept_var_oracle(x, y),
        hc_intercept_var_oracle(x, y, "HC2"),
        hc_intercept_var_oracle(x, y, "HC3"),
    )
    assert_same_stats(intercept_stats(x, y), want, y)
