import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from paired_adjust import (
    BadAlpha,
    DesignMatrices,
    EstimateReport,
    RankDeficient,
    TooFewPairs,
    WrongEstimator,
    confidence_interval,
    estimate_classical,
    estimate_r1,
    estimate_r2,
    experiment_model,
    intercept_variance_classical,
    intercept_variance_hc,
    least_squares,
    normal_quantile,
    ols_core,
    superpop_correct,
    validate_design,
)
from paired_adjust.estimators import FLAVORS, estimate_r2_flavors
from paired_adjust.ols_core import whiten

from conftest import make_design
from oracles import ppf_oracle, r1_oracle, r2_oracle, superpop_oracle


class TestClassical:
    def test_constant_vector(self):
        rep = estimate_classical(np.array([2.0, 2.0, 2.0]))
        assert rep.tau_hat == 2.0
        assert rep.s2 == 0.0
        assert rep.dof == 2

    def test_hand_computed_two_pairs(self):
        rep = estimate_classical(np.array([1.0, 3.0]))
        assert rep.tau_hat == pytest.approx(2.0)
        assert rep.s2 == pytest.approx(1.0)  # ((-1)^2 + 1^2) / (2*1)

    def test_translation_equivariance(self, rng):
        y = rng.standard_normal(9)
        base = estimate_classical(y)
        moved = estimate_classical(y + 5.0)
        assert moved.tau_hat == pytest.approx(base.tau_hat + 5.0, rel=1e-12)
        assert moved.s2 == pytest.approx(base.s2, rel=1e-12)

    def test_single_pair_rejected(self):
        with pytest.raises(TooFewPairs):
            estimate_classical(np.array([1.0]))


class TestR1:
    def test_centered_regressor_forces_mean(self, rng):
        d = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        y = rng.standard_normal(4)
        dm = DesignMatrices(d=d, m=np.zeros((4, 0)), v=np.ones(4), y=y)
        rep = estimate_r1(dm)
        assert rep.tau_hat == pytest.approx(y.mean(), rel=1e-12)

    def test_exact_fit_through_vd(self, rng):
        dm = make_design(rng, n=10, kd=2, km=0)
        y = dm.vd @ np.array([1.5, -2.0])
        dm = DesignMatrices(d=dm.d, m=dm.m, v=dm.v, y=y)
        rep = estimate_r1(dm)
        assert rep.tau_hat == pytest.approx(0.0, abs=1e-10)
        assert rep.s2 == pytest.approx(0.0, abs=1e-18)

    def test_matches_explicit_hat_oracle(self, rng):
        dm = make_design(rng, n=8, kd=2, km=0)
        rep = estimate_r1(dm)
        tau, s2 = r1_oracle(dm.d, dm.v, dm.y)
        assert rep.tau_hat == pytest.approx(tau, abs=1e-10)
        assert rep.s2 == pytest.approx(s2, rel=1e-10)
        assert rep.dof == 8 - 2 - 1
        assert len(rep.beta_d) == 2
        assert rep.beta_m == ()


class TestR2:
    def test_empty_m_block_reduces_to_r1(self, rng):
        dm = make_design(rng, n=12, kd=3, km=0)
        r1 = estimate_r1(dm)
        r2 = estimate_r2(dm)
        assert r2.tau_hat == pytest.approx(r1.tau_hat, abs=1e-12)
        assert r2.s2 == pytest.approx(r1.s2, rel=1e-12)
        assert r2.dof == r1.dof

    def test_constant_response(self, rng):
        dm = make_design(rng, n=10, kd=2, km=2)
        dm = DesignMatrices(d=dm.d, m=dm.m, v=dm.v, y=np.full(10, 7.25))
        rep = estimate_r2(dm)
        assert rep.tau_hat == pytest.approx(7.25, rel=1e-12)
        assert rep.s2 == pytest.approx(0.0, abs=1e-18)

    def test_matches_explicit_hat_oracle(self, rng):
        dm = make_design(rng, n=8, kd=2, km=2)
        rep = estimate_r2(dm)
        tau, s2, beta_m = r2_oracle(dm.d, dm.m, dm.v, dm.y)
        assert rep.tau_hat == pytest.approx(tau, abs=1e-10)
        assert rep.s2 == pytest.approx(s2, rel=1e-10)
        npt.assert_allclose(rep.beta_m, beta_m, rtol=1e-8)
        assert rep.dof == 8 - 2 - 2 - 1

    def test_scale_equivariance_all_three(self, rng):
        dm = make_design(rng, n=14, kd=2, km=2)
        scaled = DesignMatrices(d=dm.d, m=dm.m, v=dm.v, y=3.0 * dm.y - 1.0)
        for fn in (lambda d: estimate_classical(d.y), estimate_r1, estimate_r2):
            a = fn(dm)
            b = fn(scaled)
            assert b.tau_hat == pytest.approx(3.0 * a.tau_hat - 1.0, rel=1e-10, abs=1e-12)
            assert b.s2 == pytest.approx(9.0 * a.s2, rel=1e-10)


class TestSuperpopCorrect:
    def test_hand_computed_correction(self):
        # Sigma_m = (1/2) * m'm = 1; correction = beta^2 * Sigma / n = 4/3
        m = np.array([[-1.0], [0.0], [1.0]])
        dm = DesignMatrices(d=np.zeros((3, 0)), m=m, v=np.ones(3), y=np.zeros(3))
        rep = EstimateReport(
            estimator="R2", tau_hat=0.5, s2=1.0, flavor="classical",
            dof=1, n=3, beta_m=(2.0,),
        )
        out = superpop_correct(rep, dm)
        assert out.s2 == pytest.approx(1.0 + 4.0 / 3.0, rel=1e-12)
        assert out.tau_hat == rep.tau_hat
        assert out.flavor == "superpop-corrected"

    def test_matches_oracle_and_never_shrinks(self, rng):
        for _ in range(5):
            dm = make_design(rng, n=12, kd=2, km=3)
            r2 = estimate_r2(dm)
            out = superpop_correct(r2, dm)
            want = superpop_oracle(np.asarray(dm.m), np.array(r2.beta_m), r2.s2)
            assert out.s2 == pytest.approx(want, rel=1e-10)
            assert out.s2 >= r2.s2

    def test_orthogonal_m_leaves_variance_unchanged(self):
        # y does not load on m at all, so beta_m = 0 and the correction vanishes
        m = np.array([[-1.0], [0.0], [1.0], [0.0]])
        d = np.zeros((4, 0))
        y = np.array([1.0, 1.0, 1.0, 1.0])
        dm = DesignMatrices(d=d, m=m, v=np.ones(4), y=y)
        r2 = estimate_r2(dm)
        out = superpop_correct(r2, dm)
        assert out.s2 == pytest.approx(r2.s2, abs=1e-18)

    def test_wrong_estimator_rejected(self, rng):
        dm = make_design(rng, n=10, kd=2, km=2)
        with pytest.raises(WrongEstimator):
            superpop_correct(estimate_r1(dm), dm)
        dm0 = make_design(rng, n=10, kd=2, km=0)
        with pytest.raises(WrongEstimator):
            superpop_correct(estimate_r2(dm0), dm0)


class TestConfidenceInterval:
    def test_alpha_one_collapses_to_point(self):
        rep = EstimateReport("C", 1.25, 4.0, "classical", 5, 6)
        lo, hi = confidence_interval(rep, 1.0)
        assert lo == hi == 1.25

    def test_standard_normal_quantile_value(self):
        rep = EstimateReport("C", 0.0, 1.0, "classical", 5, 6)
        lo, hi = confidence_interval(rep, 0.05)
        assert hi == pytest.approx(1.959964, abs=5e-7)
        assert lo == -hi

    def test_zero_variance_degenerate(self):
        rep = EstimateReport("R1", -2.0, 0.0, "classical", 5, 6)
        assert confidence_interval(rep, 0.05) == (-2.0, -2.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5, float("nan")])
    def test_bad_alpha_rejected(self, alpha):
        rep = EstimateReport("C", 0.0, 1.0, "classical", 5, 6)
        with pytest.raises(BadAlpha):
            confidence_interval(rep, alpha)

    def test_report_dict_schema(self):
        rep = EstimateReport("R2", 1.0, 2.0, "classical", 3, 8, (0.1,), (0.2,))
        doc = rep.to_report_dict("sate", 0.1)
        assert set(doc) == {
            "estimator", "target", "tau_hat", "s2", "flavor",
            "dof", "ci", "alpha", "beta_D", "beta_M",
        }
        assert doc["ci"][0] < 1.0 < doc["ci"][1]


class TestNormalQuantile:
    def test_against_scipy_across_the_range(self):
        p = np.concatenate(
            [
                np.array([1e-12, 1e-9, 1e-6, 1e-3]),
                np.linspace(0.01, 0.99, 197),
                1.0 - np.array([1e-12, 1e-9, 1e-6, 1e-3]),
            ]
        )
        ours = np.array([normal_quantile(v) for v in p])
        theirs = ppf_oracle(p)
        assert np.abs(ours - theirs).max() < 1e-9

    def test_symmetry_and_median(self):
        assert normal_quantile(0.5) == 0.0
        assert normal_quantile(0.975) == pytest.approx(-normal_quantile(0.025), rel=1e-15)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 2.0])
    def test_out_of_range_rejected(self, p):
        with pytest.raises(BadAlpha):
            normal_quantile(p)


class TestDofContract:
    def test_documented_divisors(self, rng):
        dm = make_design(rng, n=20, kd=3, km=4)
        assert estimate_classical(dm.y).dof == 19
        assert estimate_r1(dm).dof == 20 - 3 - 1
        assert estimate_r2(dm).dof == 20 - 3 - 4 - 1

    def test_hc_flavors_are_recorded_and_differ(self, rng):
        dm = make_design(rng, n=25, kd=2, km=2)
        classical = estimate_r2(dm)
        hc3 = estimate_r2(dm, flavor="HC3")
        assert hc3.flavor == "HC3"
        assert hc3.tau_hat == classical.tau_hat
        assert hc3.s2 != classical.s2


class TestOneFactorization:
    """``validate_design`` and the R2 fit read the one factorization a design holds."""

    @staticmethod
    def _count_whitening(monkeypatch):
        widths = []

        def counted(a):
            widths.append(a.shape[-1])
            return whiten(a)

        monkeypatch.setattr(ols_core, "whiten", counted)
        monkeypatch.setattr(experiment_model, "whiten", counted)
        return widths

    def test_design_check_then_r2_factor_once_to_the_values_of_two_factorizations(
        self, rng, monkeypatch
    ):
        dm = make_design(rng, n=30, kd=3, km=2)
        x = np.hstack([dm.vd, dm.m])
        fit = least_squares(x, dm.y)
        ratios = whiten(np.column_stack([x, np.ones(dm.n)]))[2]
        widths = self._count_whitening(monkeypatch)
        diag = validate_design(dm)
        reports = estimate_r2_flavors(dm, FLAVORS)
        assert widths == [6]
        assert diag.pivot_ratios.tobytes() == ratios.tobytes()
        for report in reports:
            s2 = (intercept_variance_classical(fit) if report.flavor == "classical"
                  else intercept_variance_hc(fit, report.flavor))
            assert (report.tau_hat, report.s2, report.dof) == (fit.coefficients[0], s2, fit.dof)
            assert report.beta_d + report.beta_m == tuple(fit.coefficients[1:])

    def test_a_deficient_design_is_refused_by_both_in_their_own_words(self, rng, monkeypatch):
        base = make_design(rng, n=30, kd=2, km=2)
        dm = DesignMatrices(d=np.column_stack([base.d, 2.0 * base.d[:, 0]]), m=base.m,
                            v=base.v, y=base.y)
        x = np.hstack([dm.vd, dm.m])
        with pytest.raises(RankDeficient) as alone:
            least_squares(x, dm.y)
        ratio = whiten(np.column_stack([x, np.ones(dm.n)]))[2][2]
        widths = self._count_whitening(monkeypatch)
        message = (f"design rank 5 < 6: column vd:d3 is numerically in the span of the "
                   f"columns before it (pivot ratio {ratio:.3g}, tolerance 1e-10)")
        with pytest.raises(RankDeficient, match=f"^{re.escape(message)}$"):
            validate_design(dm)
        with pytest.raises(RankDeficient) as shared:
            estimate_r2(dm)
        assert str(shared.value) == str(alone.value)
        assert widths == [6]
