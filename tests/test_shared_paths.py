"""Enumeration, Monte Carlo and the lemma diagnostics on their shared code.

Exact summaries and Monte Carlo summaries come from one summarizer, both
distributions from one per-table core, and the ones-projection residual
from the intercept fit. These tests check the numbers that route gives
against the brute-force oracles.
"""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from paired_adjust import (
    PotentialOutcomeSample,
    ROLE_ASSIGN,
    RankDeficient,
    StudyConfig,
    TooFewPairs,
    TransformSpec,
    enumerate_exact,
    generate_sample,
    lemma_diagnostics,
    randomize,
    run_monte_carlo,
    run_study,
    substream,
)
from paired_adjust import randomization_engine as engine
from paired_adjust.cli import main
from paired_adjust.dgp import stacked_tables
from paired_adjust.errors import NonFiniteTransform
from paired_adjust.experiment_model import columns_centered, transformed_blocks

from conftest import make_sample

T = TransformSpec
from oracles import center_oracle, coverage_oracle, enumerate_oracle, hat_oracle


@pytest.mark.parametrize("alpha", [0.05, 0.5])
def test_exact_rmse_and_coverage_match_oracle(rng, alpha):
    s = make_sample(rng, 7)
    dist = enumerate_exact(s, TransformSpec.select([1]), TransformSpec.select([2]), alpha=alpha)
    d = s.x[:, 0, [0]] - s.x[:, 1, [0]]
    m = center_oracle((s.x[:, 0, [1]] + s.x[:, 1, [1]]) / 2.0)
    oracle = enumerate_oracle(s.r_t, s.r_c, d, m, alpha=alpha)
    cells = dist.summary()["estimators"]
    assert set(cells) == set(oracle)
    covered = []
    for est, (tau, s2) in oracle.items():
        rmse = np.sqrt(((tau - s.sate) ** 2).mean())
        assert cells[est]["rmse"] == pytest.approx(rmse, rel=1e-10)
        assert cells[est]["coverage"] == coverage_oracle(tau, s2, s.sate, alpha)
        covered.append(cells[est]["coverage"])
    # the intervals miss at some assignments, so coverage is not vacuous
    assert min(covered) < 1.0


def test_ones_residual_matches_hat_oracle(rng):
    n, reps = 20, 5
    s = make_sample(rng, n)
    f, g = TransformSpec.select([1, 2]), TransformSpec.select([3, 4])
    diag = lemma_diagnostics(s, f, g, reps=reps, rng=substream(41, ROLE_ASSIGN))
    d = s.x[:, 0, :2] - s.x[:, 1, :2]
    m = center_oracle((s.x[:, 0, 2:] + s.x[:, 1, 2:]) / 2.0)
    draws = substream(41, ROLE_ASSIGN)
    ones = np.ones(n)
    for r in range(reps):
        v = randomize(n, draws)
        h = hat_oracle(np.hstack([v[:, None] * d, m]))
        want = abs(ones @ (np.eye(n) - h) @ ones / n - 1.0)
        assert diag.ones_residual[r] == pytest.approx(want, rel=1e-10)


def test_ones_residual_of_empty_block_is_zero(rng):
    s = make_sample(rng, 8)
    empty = TransformSpec.select([])
    diag = lemma_diagnostics(s, empty, empty, reps=2, rng=substream(42, ROLE_ASSIGN))
    assert diag.ones_residual.tolist() == [0.0, 0.0]


def test_vd_parallel_to_ones_is_rank_deficient(rng):
    # Unit 1 sits exactly 2 above unit 2 on x1, so d = 2 everywhere and,
    # with every sign +1, vd is a multiple of the ones vector. The
    # diagnostic treats that design like every other intercept fit does.
    n = 10
    x = rng.integers(-5, 6, size=(n, 2, 4)).astype(float)
    x[:, 0, 0] = x[:, 1, 0] + 2.0
    s = PotentialOutcomeSample(
        r_t=rng.standard_normal((n, 2)), r_c=rng.standard_normal((n, 2)), x=x
    )
    f, g = TransformSpec.select([1]), TransformSpec.select([2])
    with pytest.raises(RankDeficient):
        lemma_diagnostics(s, f, g, reps=1, signs=np.ones(n))


def _first_singular(seed, samples, b):
    """(sample, draw, count) of the first draw with all four signs equal, in index order."""
    for i in range(samples):
        signs = randomize(4, substream(seed, ROLE_ASSIGN, i), b)
        equal = np.flatnonzero(np.abs(signs.sum(axis=1)) == 4)
        if equal.size:
            return i, int(equal[0]), equal.size
    raise AssertionError("no draw has all signs equal")


@pytest.mark.filterwarnings("error")
def test_one_table_refused_by_the_one_rule_in_every_mode(monkeypatch, capsys, tmp_path):
    # Unit 1 sits exactly 2 above unit 2 on x1 in each of 4 pairs, so
    # d = 2 and vd is parallel to the ones vector exactly when all four
    # signs are equal: codes 0 and 15. Every mode refuses the table at
    # its first such draw, in index order, and counts that row's.
    rng = np.random.default_rng(61)
    x = rng.standard_normal((4, 2, 4))
    x[:, 0, 0] = x[:, 1, 0] + 2.0
    table = PotentialOutcomeSample(
        r_t=rng.standard_normal((4, 2)), r_c=rng.standard_normal((4, 2)), x=x
    )
    f, g = TransformSpec.select([1]), TransformSpec.select([2])
    deficient = "the regression design is rank deficient"

    with pytest.raises(RankDeficient) as info:
        enumerate_exact(table, f, g)
    assert str(info.value) == f"assignment code 0: {deficient} (singular under 2 of 16 assignment codes)"

    _, draw, count = _first_singular(7, 1, 40)
    with pytest.raises(RankDeficient) as info:
        run_monte_carlo(table, 40, f=f, g=g, rng=substream(7, ROLE_ASSIGN, 0))
    assert str(info.value) == f"draw {draw}: {deficient} (singular under {count} of 40 draws)"

    with pytest.raises(RankDeficient) as info:
        lemma_diagnostics(table, f, g, reps=3, signs=np.ones(4))
    assert str(info.value) == f"repetition 0: {deficient} (singular under 3 of 3 repetitions)"

    # Every study sample gets this table, with its own draws. At seed 0
    # the first sample with a singular draw lies past the first slab at
    # two and three workers (slabs of six and four samples).
    def one_table(normals, setting):
        w = stacked_tables(normals, setting)[0]
        copies = (len(normals),) + table.r_t.shape
        return (w, np.broadcast_to(table.r_t, copies).copy(),
                np.broadcast_to(table.r_c, copies).copy(),
                np.broadcast_to(table.x, copies + (4,)).copy())

    monkeypatch.setattr(engine, "stacked_tables", one_table)
    for mode, b in (("sate", 2), ("pate", 1)):
        sample, draw, count = _first_singular(0, 12, b)
        assert sample >= 6
        where = f"sample {sample}, draw {draw}" if b > 1 else f"sample {sample}"
        want = f"{where}: {deficient}" + (f" (singular under {count} of {b} draws)" if b > 1 else "")
        for workers in (1, 2, 3):
            cfg = StudyConfig(mode=mode, setting="nonparallel", n=4, samples=12, randomizations=b,
                              f=f, g=g, seed=0, workers=workers)
            with pytest.raises(RankDeficient) as info:
                run_study(cfg)
            assert str(info.value) == want, (mode, workers)

    errs = []
    for workers in ("1", "2", "3"):
        argv = ["simulate", "--mode", "sate-study", "--setting", "nonparallel", "--n", "4",
                "--S", "12", "--B", "2", "--f", "select:1", "--g", "select:2", "--seed", "0",
                "--workers", workers, "--out", str(tmp_path / "r.json")]
        assert main(argv) == RankDeficient.exit_code
        errs.append(capsys.readouterr().err)
    assert not (tmp_path / "r.json").exists()
    sample, draw, _ = _first_singular(0, 12, 2)
    assert errs[0].startswith(f"paired-adjust: error: sample {sample}, draw {draw}: ")
    assert errs[0] == errs[1] == errs[2]


@pytest.mark.parametrize("n", [3, 5, 9])
def test_fewer_pairs_than_design_columns_is_rank_deficient(rng, n):
    # Four d and four m columns need n > 9, the feasibility rule every
    # command applies; nine pairs would leave no residual degree of freedom.
    s = make_sample(rng, n)
    ident = TransformSpec.identity()
    with pytest.raises(TooFewPairs, match=f"got n={n}, K_D=4, K_M=4"):
        lemma_diagnostics(s, ident, ident, reps=2, rng=substream(44, ROLE_ASSIGN))


@pytest.mark.filterwarnings("error")
def test_one_pair_table_refused_in_both_modes():
    # S^2 is undefined with one pair, so the exact and Monte Carlo
    # summaries refuse the table as estimate_classical does.
    s = PotentialOutcomeSample(r_t=np.array([[1.0, 2.0]]), r_c=np.array([[0.0, 0.5]]))
    with pytest.raises(TooFewPairs, match="need at least 2 pairs, got 1"):
        enumerate_exact(s)
    with pytest.raises(TooFewPairs, match="need at least 2 pairs, got 1"):
        run_monte_carlo(s, 8, estimators=("C",), rng=substream(43, ROLE_ASSIGN))


class TestColumnsCentered:
    def test_stacked_tables_match_single_tables(self, rng):
        m = np.stack([center_oracle(t) for t in rng.standard_normal((3, 12, 2))])
        m[1, :, 1] += 1e-6
        assert columns_centered(m).tolist() == [True, False, True]
        assert [bool(columns_centered(t)) for t in m] == [True, False, True]

    def test_tolerance_scales_with_n(self):
        # A column of scale 1: the allowance is 1e-10 * n = 1e-8.
        m = np.zeros((100, 1))
        m[1, 0], m[2, 0] = 1.0, -1.0
        m[0, 0] = 0.9e-8
        assert columns_centered(m)
        m[0, 0] = 1.1e-8
        assert not columns_centered(m)

    def test_zero_width_block_is_centered(self):
        assert columns_centered(np.zeros((5, 0)))
        assert columns_centered(np.zeros((3, 5, 0))).tolist() == [True] * 3

    def test_tolerance_scales_with_the_column(self):
        # Above scale 1 the allowance grows with the column's largest
        # magnitude, so a column in other units passes or fails as before.
        m = np.zeros((100, 2))
        m[1], m[2] = 1e6, -1e6
        m[0] = 0.9e-2, 1.1e-2  # 1e-10 * n * 1e6 is 1e-2
        assert columns_centered(m[:, :1]) and not columns_centered(m[:, 1:])
        m[0] = np.inf  # an infinite sum is not within an infinite allowance
        assert not columns_centered(m).any()

    # Scaling by 2^k changes no rounding while the values stay normal, so
    # the rule must read the same at every scale. Each column's largest
    # magnitude is put in [2^11, 2^12), which keeps every allowance
    # 1e-10 n max|m_k| 2^k a normal float down to k = -1000; offsets near
    # 1e-10 n of the column's scale straddle the allowance.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.integers(2, 12),
        st.sampled_from([0.0, 1e-13, 1e-11, 3e-10, 1e-9, 1e-3]),
        st.integers(-1000, 1000),
        st.integers(0, 2**32 - 1),
    )
    def test_the_rule_does_not_depend_on_units(self, n, offset, k, seed):
        m = center_oracle(np.random.default_rng(seed).standard_normal((n, 3)))
        m[0] += offset * np.array([0.0, 1.0, -1.0])
        m = np.ldexp(m, 12 - np.frexp(np.abs(m).max(axis=0))[1])
        assert columns_centered(np.ldexp(m, k)) == columns_centered(m)

    # Every g transform the CLI takes, on the generated covariates in
    # units 10^-9 to 10^12 times their own; exp overflows on large units.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.sampled_from([T.identity(), T.power(2), T.power(3), T.log(), T.exp(), T.select([2, 4])]),
        st.integers(6, 400),
        st.integers(-9, 12),
        st.integers(0, 2**32 - 1),
    )
    def test_every_built_m_block_is_centered(self, g, n, power, seed):
        normals = np.random.default_rng(seed).standard_normal((3, 10 * n))
        x = stacked_tables(normals, "nonparallel")[3] * 10.0**power
        try:
            _, m = transformed_blocks(x, T.identity(), g)
        except NonFiniteTransform:
            reject()
        assert columns_centered(m).all()


def test_r2_with_no_m_columns_is_r1_bit_for_bit():
    # With an empty m block R2's design is R1's, so both must come from
    # the same read-off of the same Gram, in enumeration and in a study.
    sample = generate_sample(12, "nonparallel", seed=11)
    dist = enumerate_exact(sample, T.identity(), T.select([]))
    assert dist.estimators == ("C", "R1", "R2")
    for got in (dist.tau_hat, dist.s2):
        assert got["R2"].tobytes() == got["R1"].tobytes()
    report = run_study(StudyConfig(mode="sate", setting="nonparallel", n=30, samples=50,
                                   randomizations=50, g=T.select([]), seed=5, workers=1))
    metrics = report.metrics
    assert metrics["se_ratio_R2_R1"] == {"median": 1.0, "q025": 1.0, "q975": 1.0}
    for name in ("coverage_R{}", "se_ratio_R{}_C", "rmse_ratio_R{}_C"):
        assert metrics[name.format(2)] == metrics[name.format(1)], name
