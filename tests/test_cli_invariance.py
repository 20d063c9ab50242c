"""Reports that do not depend on what should not matter, checked through ``cli.main``.

Three invariances of the estimators, stated at kernel level in
``test_kernel_properties.py``, hold for the command line's reports too:

- which unit of a pair is listed first: ``analyze`` with the unit labels
  of some pairs swapped, each row keeping its own z, y and x, writes the
  same bytes, since v*d, y and m come out bit for bit the same;
- covariate units: ``enumerate`` with each covariate multiplied by a
  power of two writes the same bytes, since every step that sees the
  scale (the transforms, the centering, the equilibration before the
  factorization) is exact under it;
- pair order, and for ``enumerate`` the unit order too: the sums run in
  another order, so the reports agree only to a relative tolerance
  stated below, while every count and coverage is equal.

Each report is written to the same path from an input at the same
path, so the echoed configuration is the same too.
"""

import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paired_adjust import (
    PairedExperiment,
    PotentialOutcomeSample,
    generate_sample,
    randomize,
    reveal,
    substream,
    write_experiment_csv,
    write_science_table,
)
from paired_adjust.cli import main
from paired_adjust.rng import ROLE_ASSIGN

# analyze fits by QR, so another pair order moves its numbers by a few
# roundings: at most 2.5e-12 relative (a coefficient) over 180 fits of
# n = 18..40 pairs under every transform pair drawn below.
ANALYZE_RTOL = 1e-10
# enumerate reads its fits off normal equations, whose rounding grows
# like eps over the smallest pivot share (ROADMAP item 10), and a pair
# order also moves which pairs share a half table. Over 60 permuted and
# unit-swapped 12-pair tables the worst drift was 6.1e-11 (a variance)
# and 4.9e-10 for s2_margin, a difference of two such numbers, both
# under power:2 blocks, whose columns are nearly collinear; a unit swap
# alone moved at most 1.3e-14.
ENUMERATE_RTOL = 1e-8
# Values that count draws, pairs or degrees of freedom, compared exactly.
COUNTS = ("coverage", "assignments", "n", "dof")
ENUMERATE_N = 12
# Transform pairs that fit a 12-pair table: K_D + K_M + 1 < 12.
ENUMERATE_TRANSFORMS = [
    ("identity", "identity"),
    ("select:1,3", "power:2"),
    ("power:2", "select:2"),
    ("power:2", "select:1,4"),
    ("select:2", "select:"),
]
ANALYZE_TRANSFORMS = ["identity", "select:1,3", "power:2", "select:"]
SETTINGS = settings(max_examples=20, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _report(tmp_path, argv):
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_text()


def _unit_index(swap):
    """(rows, units) indices that list unit 2 first in the pairs where ``swap`` is True."""
    units = np.where(np.asarray(swap)[:, None], [1, 0], [0, 1])
    return np.arange(len(swap))[:, None], units


def _experiment(n, seed):
    sample = generate_sample(n, "nonparallel", seed=seed)
    return reveal(sample, randomize(n, substream(seed, ROLE_ASSIGN)))[0]


def _analyze(tmp_path, exp, options):
    path = tmp_path / "experiment.csv"
    write_experiment_csv(exp, path)
    return _report(tmp_path, ["analyze", "--input", str(path), *options])


def _enumerate(tmp_path, r_t, r_c, x, f, g):
    path = tmp_path / "table.csv"
    write_science_table(PotentialOutcomeSample(r_t=r_t, r_c=r_c, x=x), path)
    return _report(tmp_path, ["enumerate", "--input", str(path), "--f", f, "--g", g])


def _assert_agree(a, b, rtol, key=""):
    """``a`` and ``b`` have one structure; counts are equal and other numbers within ``rtol``."""
    if isinstance(a, dict):
        assert sorted(a) == sorted(b), key
        for k in a:
            _assert_agree(a[k], b[k], rtol, k)
    elif isinstance(a, list):
        assert len(a) == len(b), key
        for x, y in zip(a, b):
            _assert_agree(x, y, rtol, key)
    elif isinstance(a, float) and key not in COUNTS:
        assert abs(a - b) <= rtol * max(abs(a), abs(b)), (key, a, b)
    else:
        assert a == b, (key, a, b)


@SETTINGS
@given(
    n=st.integers(18, 40),
    seed=st.integers(0, 2**20),
    f=st.sampled_from(ANALYZE_TRANSFORMS),
    g=st.sampled_from(ANALYZE_TRANSFORMS),
    variance=st.sampled_from(["classical", "HC2", "HC3"]),
    target=st.sampled_from(["sate", "pate"]),
    data=st.data(),
)
def test_analyze_does_not_depend_on_which_unit_is_listed_first(
    tmp_path, n, seed, f, g, variance, target, data
):
    exp = _experiment(n, seed)
    swap = data.draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    rows, units = _unit_index(swap)
    swapped = PairedExperiment(x=exp.x[rows, units], z=exp.z[rows, units], y=exp.y[rows, units],
                               pair_ids=exp.pair_ids)
    options = ["--f", f, "--g", g, "--variance", variance, "--target", target]
    assert _analyze(tmp_path, swapped, options) == _analyze(tmp_path, exp, options)


@SETTINGS
@given(
    seed=st.integers(0, 2**20),
    transforms=st.sampled_from(ENUMERATE_TRANSFORMS),
    exponents=st.lists(st.sampled_from([3, -2, 10, -20]), min_size=4, max_size=4),
)
def test_enumerate_does_not_depend_on_power_of_two_covariate_units(
    tmp_path, seed, transforms, exponents
):
    s = generate_sample(ENUMERATE_N, "nonparallel", seed=seed)
    scaled = s.x * 2.0 ** np.array(exponents, dtype=float)
    want = _enumerate(tmp_path, s.r_t, s.r_c, s.x, *transforms)
    assert _enumerate(tmp_path, s.r_t, s.r_c, scaled, *transforms) == want


@SETTINGS
@given(
    seed=st.integers(0, 2**20),
    transforms=st.sampled_from(ENUMERATE_TRANSFORMS),
    data=st.data(),
)
def test_enumerate_agrees_under_unit_swaps_and_pair_permutations(tmp_path, seed, transforms, data):
    s = generate_sample(ENUMERATE_N, "nonparallel", seed=seed)
    want = json.loads(_enumerate(tmp_path, s.r_t, s.r_c, s.x, *transforms))
    swap = data.draw(st.lists(st.booleans(), min_size=ENUMERATE_N, max_size=ENUMERATE_N))
    perm = data.draw(st.permutations(range(ENUMERATE_N)))
    rows, units = _unit_index(swap)
    r_t, r_c, x = s.r_t[rows, units][perm], s.r_c[rows, units][perm], s.x[rows, units][perm]
    _assert_agree(json.loads(_enumerate(tmp_path, r_t, r_c, x, *transforms)), want, ENUMERATE_RTOL)


@SETTINGS
@given(
    n=st.integers(18, 40),
    seed=st.integers(0, 2**20),
    f=st.sampled_from(ANALYZE_TRANSFORMS),
    g=st.sampled_from(ANALYZE_TRANSFORMS),
    variance=st.sampled_from(["classical", "HC2", "HC3"]),
    data=st.data(),
)
def test_analyze_agrees_under_pair_permutations(tmp_path, n, seed, f, g, variance, data):
    exp = _experiment(n, seed)
    perm = data.draw(st.permutations(range(n)))
    permuted = PairedExperiment(x=exp.x[perm], z=exp.z[perm], y=exp.y[perm],
                                pair_ids=[exp.pair_ids[i] for i in perm])
    options = ["--f", f, "--g", g, "--variance", variance, "--target", "pate"]
    got = json.loads(_analyze(tmp_path, permuted, options))
    _assert_agree(got, json.loads(_analyze(tmp_path, exp, options)), ANALYZE_RTOL)
