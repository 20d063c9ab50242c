"""Enumeration, Monte Carlo and the lemma diagnostics on their shared code.

Exact summaries and Monte Carlo summaries come from one summarizer, both
distributions from one per-table core, and the ones-projection residual
from the intercept fit. These tests check the numbers that route gives
against the brute-force oracles.
"""

import numpy as np
import pytest

from paired_adjust import (
    PotentialOutcomeSample,
    ROLE_ASSIGN,
    RankDeficient,
    TooFewPairs,
    TransformSpec,
    enumerate_exact,
    lemma_diagnostics,
    randomize,
    run_monte_carlo,
    substream,
)
from paired_adjust.experiment_model import columns_centered

from conftest import make_sample
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
        m = np.zeros((100, 1))
        m[0, 0] = 0.9e-8
        assert columns_centered(m)
        m[0, 0] = 1.1e-8
        assert not columns_centered(m)

    def test_zero_width_block_is_centered(self):
        assert columns_centered(np.zeros((5, 0)))
        assert columns_centered(np.zeros((3, 5, 0))).tolist() == [True] * 3
