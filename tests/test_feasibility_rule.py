"""One feasibility rule for every entry point.

``experiment_model.design_estimators`` decides which estimators a design
of n pairs allows: R1 and R2 divide by n - K_D - 1 and n - K_D - K_M - 1,
so regression needs n > K_D + K_M + 1. ``build_design``, the study
configuration check, ``enumerate_exact``, ``run_monte_carlo`` and
``lemma_diagnostics`` must each refuse exactly the designs the rule
refuses, all with TooFewPairs, and enumeration must compute exactly the
estimators it allows.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paired_adjust import (
    ROLE_ASSIGN,
    DimensionMismatch,
    StudyConfig,
    TooFewPairs,
    TransformSpec,
    build_design,
    enumerate_exact,
    lemma_diagnostics,
    randomize,
    reveal,
    run_monte_carlo,
    substream,
)
from paired_adjust.experiment_model import design_estimators
from paired_adjust.randomization_engine import _validate_config

from conftest import make_sample

T = TransformSpec
IDENT = T.identity()
TRANSFORMS = st.one_of(
    st.just(IDENT),
    st.integers(1, 3).map(T.power),
    st.lists(st.integers(1, 4), unique=True, max_size=4).map(T.select),
)


def width(spec: TransformSpec) -> int:
    """Columns the transform makes from four covariates, counted by hand."""
    if spec.kind == "power":
        return 4 * spec.degree
    if spec.kind == "select":
        return len(spec.columns)
    return 4


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(2, 12), f=TRANSFORMS, g=TRANSFORMS)
def test_every_entry_point_refuses_exactly_what_the_rule_refuses(n, f, g):
    k_d, k_m = width(f), width(g)
    sample = make_sample(np.random.default_rng(n), n)
    experiment, _ = reveal(sample, randomize(n, substream(n, ROLE_ASSIGN)))
    calls = {
        "build_design": lambda: build_design(experiment, f, g),
        "study config": lambda: _validate_config(
            StudyConfig(mode="sate", setting="nonparallel", n=n, samples=1, f=f, g=g)
        ),
        "enumerate_exact": lambda: enumerate_exact(sample, f, g),
        "run_monte_carlo": lambda: run_monte_carlo(
            sample, 4, f=f, g=g, rng=substream(n, ROLE_ASSIGN, 1)
        ),
        "lemma_diagnostics": lambda: lemma_diagnostics(
            sample, f, g, reps=2, rng=substream(n, ROLE_ASSIGN, 2)
        ),
    }
    if n <= k_d + k_m + 1:
        for name, call in calls.items():
            with pytest.raises(TooFewPairs, match=f"got n={n}, K_D={k_d}, K_M={k_m}"):
                call()
                pytest.fail(f"{name} accepted the design")
        return
    want = ("C", "R1", "R2") + (("R2P",) if k_m else ())
    assert design_estimators(n, 4, f, g) == want
    for call in calls.values():
        call()
    assert enumerate_exact(sample, f, g).estimators == want


def test_without_transforms_only_the_mean_is_asked_for(rng):
    bare = make_sample(rng, 6, with_x=False)
    assert design_estimators(6, None, None, None) == ("C",)
    assert enumerate_exact(bare).estimators == ("C",)
    with pytest.raises(TooFewPairs, match="need at least 2 pairs, got 1"):
        design_estimators(1, 4, IDENT, IDENT)
    with pytest.raises(DimensionMismatch, match="no observed covariates"):
        enumerate_exact(bare, T.select([]), None)
    with pytest.raises(DimensionMismatch, match="no observed covariates"):
        run_monte_carlo(bare, 4, g=T.select([]), rng=substream(1, ROLE_ASSIGN))


@pytest.mark.parametrize("f, g", [(T.select([1]), None), (None, T.power(2))])
def test_a_lone_transform_pairs_with_identity(rng, f, g):
    s = make_sample(rng, 16)
    paired = (f or IDENT, g or IDENT)
    assert design_estimators(16, 4, f, g) == design_estimators(16, 4, *paired)
    lone, both = enumerate_exact(s, f, g), enumerate_exact(s, *paired)
    assert lone.estimators == both.estimators == ("C", "R1", "R2", "R2P")
    for est in lone.estimators:
        npt.assert_array_equal(lone.tau_hat[est], both.tau_hat[est])
        npt.assert_array_equal(lone.s2[est], both.s2[est])
    mc = [
        run_monte_carlo(s, 50, f=a, g=b, rng=substream(2, ROLE_ASSIGN))
        for a, b in ((f, g), paired)
    ]
    assert mc[0] == mc[1]
    # the rule sizes the design with identity in place: 1 + 4 or 4 + 8 columns
    with pytest.raises(TooFewPairs):
        design_estimators(6, 4, f, g)
