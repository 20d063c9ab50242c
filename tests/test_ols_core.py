import numpy as np
import numpy.testing as npt
import pytest

from paired_adjust import (
    DataError,
    DegenerateDenominator,
    LeverageOne,
    RankDeficient,
    intercept_variance_classical,
    intercept_variance_hc,
    least_squares,
)

from oracles import (
    classical_intercept_var_oracle,
    fit_oracle,
    hc_intercept_var_oracle,
)


class TestLeastSquares:
    def test_constant_response_is_fit_exactly(self, rng):
        x = rng.standard_normal((20, 3))
        fit = least_squares(x, np.full(20, 4.5))
        assert fit.coefficients[0] == pytest.approx(4.5, abs=1e-12)
        npt.assert_allclose(fit.coefficients[1:], 0.0, atol=1e-12)
        npt.assert_allclose(fit.residuals, 0.0, atol=1e-12)

    def test_exact_line_interpolation(self):
        fit = least_squares(np.array([0.0, 1.0, 2.0]), np.array([1.0, 3.0, 5.0]))
        npt.assert_allclose(fit.coefficients, [1.0, 2.0], atol=1e-12)
        npt.assert_allclose(fit.residuals, 0.0, atol=1e-12)
        assert fit.dof == 1

    def test_matches_normal_equations_oracle(self, rng):
        x = rng.standard_normal((50, 3))
        y = rng.standard_normal(50)
        fit = least_squares(x, y)
        beta, resid, sse = fit_oracle(np.column_stack([np.ones(50), x]), y)
        npt.assert_allclose(fit.coefficients, beta, rtol=1e-8)
        npt.assert_allclose(fit.residuals, resid, rtol=0, atol=1e-8)
        assert fit.sse == pytest.approx(sse, rel=1e-8)

    def test_residuals_orthogonal_to_design(self, rng):
        x = rng.standard_normal((40, 4))
        y = 3.0 * rng.standard_normal(40)
        fit = least_squares(x, y)
        bound = 1e-8 * np.linalg.norm(y)
        design = np.column_stack([np.ones(40), x])
        assert np.abs(design.T @ fit.residuals).max() < bound

    def test_leverages_sum_to_column_count(self, rng):
        x = rng.standard_normal((30, 5))
        fit = least_squares(x, rng.standard_normal(30))
        assert fit.leverages.sum() == pytest.approx(6.0, abs=1e-8)
        assert fit.leverages.min() >= 0.0

    def test_zero_width_design_fits_the_mean(self, rng):
        y = rng.standard_normal(12)
        fit = least_squares(np.zeros((12, 0)), y)
        assert fit.coefficients[0] == pytest.approx(y.mean(), abs=1e-12)
        assert fit.dof == 11

    def test_duplicate_column_rejected(self, rng):
        x = rng.standard_normal((20, 1))
        with pytest.raises(RankDeficient):
            least_squares(np.hstack([x, x]), rng.standard_normal(20))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("where", ["y", "x"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_a_data_error(self, rng, where, bad):
        # A NaN response used to come back as NaN coefficients, and a NaN
        # column as RankDeficient; both are bad data, not a rank problem.
        x, y = rng.standard_normal((6, 2)), np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        (y if where == "y" else x[:, 1])[2] = bad
        with pytest.raises(DataError, match=f"{where} holds a non-finite value"):
            least_squares(x, y)

    def test_more_columns_than_rows_rejected(self, rng):
        with pytest.raises(RankDeficient):
            least_squares(rng.standard_normal((3, 5)), rng.standard_normal(3))

    def test_affine_equivariance(self, rng):
        x = rng.standard_normal((25, 2))
        y = rng.standard_normal(25)
        base = least_squares(x, y)
        shifted = least_squares(x, 2.5 * y - 7.0)
        assert shifted.coefficients[0] == pytest.approx(
            2.5 * base.coefficients[0] - 7.0, rel=1e-10, abs=1e-10
        )
        v0 = intercept_variance_classical(base)
        v1 = intercept_variance_classical(shifted)
        assert v1 == pytest.approx(2.5**2 * v0, rel=1e-10)


class TestClassicalInterceptVariance:
    def test_centered_block_gives_sse_over_dof_n(self, rng):
        m = rng.standard_normal((15, 3))
        m = m - m.mean(axis=0)
        y = rng.standard_normal(15)
        fit = least_squares(m, y)
        want = fit.sse / fit.dof / 15
        assert intercept_variance_classical(fit) == pytest.approx(want, rel=1e-10)

    def test_zero_residuals_give_zero_variance(self):
        x = np.array([0.0, 1.0, 2.0])
        fit = least_squares(x, 1.0 + 2.0 * x)
        assert intercept_variance_classical(fit) == pytest.approx(0.0, abs=1e-20)

    def test_matches_explicit_inverse_oracle(self, rng):
        x = rng.standard_normal((30, 4)) + 1.5
        y = rng.standard_normal(30)
        fit = least_squares(x, y)
        want = classical_intercept_var_oracle(x, y)
        assert intercept_variance_classical(fit) == pytest.approx(want, rel=1e-8)

    def test_ones_nearly_in_span_rejected(self, rng):
        # the column is 1e-6 away from the intercept, so e'(I-H)e ~
        # 1e-12 * n: the fit's own pivot test on the ones column, which
        # is factored last, has the floor 1e-10 * n
        x = 1.0 + 1e-6 * rng.standard_normal((50, 1))
        with pytest.raises(RankDeficient, match="the intercept"):
            least_squares(x, rng.standard_normal(50))

    def test_degenerate_denominator_of_a_hand_built_fit(self, rng):
        fit = least_squares(rng.standard_normal((10, 1)), rng.standard_normal(10))
        fit.intercept_row = 1e6 * fit.intercept_row
        with pytest.raises(DegenerateDenominator):
            intercept_variance_classical(fit)


class TestHcInterceptVariance:
    def test_zero_residuals_give_zero(self):
        x = np.array([0.0, 1.0, 2.0, 4.0])
        fit = least_squares(x, 1.0 + 2.0 * x)
        assert intercept_variance_hc(fit, "HC2") == pytest.approx(0.0, abs=1e-18)
        assert intercept_variance_hc(fit, "HC3") == pytest.approx(0.0, abs=1e-18)

    def test_hc3_dominates_hc2(self, rng):
        x = np.concatenate([np.ones(8), -np.ones(8)])[:, None]
        y = rng.standard_normal(16)
        fit = least_squares(x, y)
        assert intercept_variance_hc(fit, "HC3") >= intercept_variance_hc(fit, "HC2")

    @pytest.mark.parametrize("variant", ["HC2", "HC3"])
    def test_matches_dense_sandwich_oracle(self, rng, variant):
        x = rng.standard_normal((35, 3))
        y = rng.standard_normal(35)
        fit = least_squares(x, y)
        want = hc_intercept_var_oracle(x, y, variant)
        assert intercept_variance_hc(fit, variant) == pytest.approx(want, rel=1e-8)

    def test_leverage_one_rejected(self):
        x = np.array([1.0, 0.0, 0.0, 0.0])
        fit = least_squares(x, np.array([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(LeverageOne):
            intercept_variance_hc(fit, "HC2")

    def test_unknown_variant_rejected(self, rng):
        fit = least_squares(rng.standard_normal((10, 1)), rng.standard_normal(10))
        with pytest.raises(ValueError):
            intercept_variance_hc(fit, "HC1")
