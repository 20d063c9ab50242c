from functools import partial

import numpy as np
import numpy.testing as npt
import pytest

from paired_adjust import (
    ConfigError,
    LengthMismatch,
    PotentialOutcomeSample,
    ROLE_ASSIGN,
    RankDeficient,
    StudyConfig,
    TooFewPairs,
    TooLarge,
    TransformSpec,
    assignment_signs,
    build_design,
    enumerate_exact,
    estimate_classical,
    estimate_r1,
    estimate_r2,
    generate_sample,
    lemma_diagnostics,
    randomize,
    reveal,
    run_monte_carlo,
    run_study,
    substream,
    superpop_correct,
)
from paired_adjust import kernel
from paired_adjust import randomization_engine as engine
from paired_adjust.randomization_engine import _study_block, _summarize

from conftest import make_sample, record_sign_products
from oracles import enumerate_oracle


IDENT = TransformSpec.identity()


class TestRandomize:
    def test_signs_are_fair(self):
        v = randomize(100_000, substream(3, ROLE_ASSIGN))
        assert set(np.unique(v)) == {-1.0, 1.0}
        assert abs(v.mean()) < 0.01

    def test_empty(self):
        assert randomize(0, substream(3, ROLE_ASSIGN)).shape == (0,)

    def test_reproducible(self):
        a = randomize(64, substream(4, ROLE_ASSIGN, 7))
        b = randomize(64, substream(4, ROLE_ASSIGN, 7))
        npt.assert_array_equal(a, b)


class TestAssignmentSigns:
    def test_matches_the_shift_formula_bit_for_bit(self):
        rng = np.random.default_rng(29)
        for n in range(1, 63):
            codes = np.concatenate([[0, 2**n - 1], rng.integers(0, 2**n, 30)])
            shifted = 2.0 * ((codes[:, None] >> np.arange(n)) & 1) - 1.0
            signs = assignment_signs(codes, n)
            assert signs.shape == (32, n) and signs.dtype == np.float64
            assert signs.tobytes() == shifted.tobytes(), n


class TestReveal:
    def test_constant_effect_identity(self, rng):
        s = make_sample(rng, 10, effect="constant")
        v = randomize(10, substream(5, ROLE_ASSIGN))
        _, y = reveal(s, v)
        ell = s.levels
        npt.assert_allclose(y - v * (ell[:, 0] - ell[:, 1]), 3.0, atol=1e-12)

    def test_zero_effect_reduces_to_level_contrast(self, rng):
        s = make_sample(rng, 8, effect="zero")
        v = randomize(8, substream(6, ROLE_ASSIGN))
        _, y = reveal(s, v)
        ell = s.levels
        npt.assert_allclose(y, v * (ell[:, 0] - ell[:, 1]), atol=1e-12)

    def test_flipping_signs_negates_centered_y(self, rng):
        s = make_sample(rng, 9)
        v = randomize(9, substream(7, ROLE_ASSIGN))
        _, y_pos = reveal(s, v)
        _, y_neg = reveal(s, -v)
        npt.assert_allclose(y_pos - s.effects, -(y_neg - s.effects), atol=1e-12)

    def test_assignment_written_into_experiment(self, rng):
        s = make_sample(rng, 6)
        v = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        exp, y = reveal(s, v)
        npt.assert_array_equal(exp.z[:, 0], (v > 0).astype(int))
        npt.assert_array_equal(exp.z.sum(axis=1), 1)
        # observed responses: treated unit shows r_t, control shows r_c
        for i in range(6):
            j = 0 if v[i] > 0 else 1
            assert exp.y[i, j] == s.r_t[i, j]
            assert exp.y[i, 1 - j] == s.r_c[i, 1 - j]

    def test_length_mismatch(self, rng):
        s = make_sample(rng, 6)
        with pytest.raises(LengthMismatch):
            reveal(s, np.ones(5))


def _unpaired_enumeration(sample, f, g, want):
    """The kernel's (tau, s2) of ``want`` at every one of the 2^n codes, one response each.

    Each code's sign products are the sum of the products of the fixed
    columns' low and high halves with that code's half signs, as an
    enumeration's half tables give them, here taken by ``times_of`` for
    all 2^n codes with no twin fitted.
    """
    n, low = sample.n, sample.n // 2
    codes = np.arange(2**n)
    times_lo = kernel.times_of(assignment_signs(codes & ((1 << low) - 1), low)[None])
    times_hi = kernel.times_of(assignment_signs(codes >> low, n - low)[None])

    def times(columns, rows, part, out):
        high = np.empty_like(out)
        times_hi(columns[..., low:], rows, part, high)
        times_lo(columns[..., :low], rows, part, out)
        np.add(high, out, out=out)

    return engine._table_stats(sample, times, 2**n, f, g, want, "assignment code")


class TestEnumerateExact:
    def test_two_pair_toy_distribution(self):
        # levels differ by (1, 0), effects are zero
        s = PotentialOutcomeSample(
            r_t=np.array([[0.5, -0.5], [0.0, 0.0]]),
            r_c=np.array([[0.5, -0.5], [0.0, 0.0]]),
        )
        dist = enumerate_exact(s)
        assert sorted(dist.tau_hat["C"]) == [-0.5, -0.5, 0.5, 0.5]
        assert dist.mean("C") == pytest.approx(0.0, abs=1e-15)
        assert dist.variance("C") == pytest.approx(0.25, abs=1e-15)

    def test_mean_estimator_is_exactly_unbiased(self, rng):
        for _ in range(5):
            s = make_sample(rng, 7, with_x=False)
            dist = enumerate_exact(s)
            assert dist.mean("C") == pytest.approx(s.sate, abs=1e-10)

    def test_variance_formula_and_conservativeness(self, rng):
        s = make_sample(rng, 8)
        dist = enumerate_exact(s)
        ell = s.levels
        formula = ((ell[:, 0] - ell[:, 1]) ** 2).sum() / s.n**2
        assert dist.variance("C") == pytest.approx(formula, abs=1e-10)
        assert dist.mean_s2("C") >= dist.variance("C") - 1e-10

    def test_constant_effects_make_r1_exactly_unbiased(self, rng):
        s = make_sample(rng, 8, effect="constant")
        dist = enumerate_exact(s, TransformSpec.select([1, 2]), TransformSpec.select([3]))
        assert dist.mean("R1") == pytest.approx(s.sate, abs=1e-10)

    def test_matches_brute_force_oracle(self, rng):
        s = make_sample(rng, 6)
        f, g = TransformSpec.select([1]), TransformSpec.select([2])
        dist = enumerate_exact(s, f, g, alpha=0.05)
        d = s.x[:, 0, [0]] - s.x[:, 1, [0]]
        m_raw = (s.x[:, 0, [1]] + s.x[:, 1, [1]]) / 2.0
        m = m_raw - m_raw.mean(axis=0)
        oracle = enumerate_oracle(s.r_t, s.r_c, d, m)
        for est in ("C", "R1", "R2", "R2P"):
            tau_o, s2_o = oracle[est]
            npt.assert_allclose(dist.tau_hat[est], tau_o, rtol=1e-8, atol=1e-10)
            npt.assert_allclose(dist.s2[est], s2_o, rtol=1e-8, atol=1e-12)

    def test_matches_single_fit_estimators(self, rng):
        # every assignment, both product routes: batched kernel vs lstsq
        s = make_sample(rng, 6)
        f, g = TransformSpec.select([1]), TransformSpec.select([2, 3])
        dist = enumerate_exact(s, f, g)
        for code in range(2**6):
            v = assignment_signs(np.array([code]), 6)[0]
            exp, _ = reveal(s, v)
            dm = build_design(exp, f, g)
            r1 = estimate_r1(dm)
            r2 = estimate_r2(dm)
            r2p = superpop_correct(r2, dm)
            c = estimate_classical(dm.y)
            assert dist.tau_hat["C"][code] == pytest.approx(c.tau_hat, abs=1e-10)
            assert dist.tau_hat["R1"][code] == pytest.approx(r1.tau_hat, abs=1e-9)
            assert dist.s2["R1"][code] == pytest.approx(r1.s2, rel=1e-8, abs=1e-12)
            assert dist.tau_hat["R2"][code] == pytest.approx(r2.tau_hat, abs=1e-9)
            assert dist.s2["R2"][code] == pytest.approx(r2.s2, rel=1e-8, abs=1e-12)
            assert dist.s2["R2P"][code] == pytest.approx(r2p.s2, rel=1e-8, abs=1e-12)

    def test_too_large_rejected(self):
        s = PotentialOutcomeSample(r_t=np.zeros((17, 2)), r_c=np.zeros((17, 2)))
        with pytest.raises(TooLarge):
            enumerate_exact(s)
        s5 = PotentialOutcomeSample(r_t=np.zeros((5, 2)), r_c=np.ones((5, 2)))
        with pytest.raises(TooLarge):
            enumerate_exact(s5, cap=4)

    def test_regression_skipped_when_infeasible(self, rng):
        s = make_sample(rng, 6)
        # identity/identity needs n > 9: asked for, it is refused, as in
        # every other command; regression is skipped only when no
        # transform is asked for
        with pytest.raises(TooFewPairs, match="got n=6, K_D=4, K_M=4"):
            enumerate_exact(s, IDENT, IDENT)
        assert enumerate_exact(s).estimators == ("C",)

    @pytest.mark.parametrize("n", range(2, 14))
    def test_half_tables_match_full_sign_products_at_any_chunk(self, n, monkeypatch):
        # enumerate_exact sums each code's products from a low and a high
        # half table; the kernel over the full (2^n, n) signs, at the
        # default grid budget, is the reference. Every value is within
        # 1e-15 of its scale: max|Y| for estimates, max|Y|^2 for
        # variances. Each product is one sum whatever the part it falls
        # in, so the arrays are bit for bit the same at any chunk width.
        s = generate_sample(n, "nonparallel", seed=100 + n)
        f, g = (TransformSpec.select([1]), TransformSpec.select([2])) if n > 3 else (None, None)
        want = ("C", "R1", "R2", "R2P") if n > 3 else ("C",)
        signs = assignment_signs(np.arange(2**n), n)
        ref = engine._table_stats(s, kernel.times_of(signs[None]), 2**n, f, g, want)
        effects, gaps = kernel.effects_and_gaps(s.r_t, s.r_c)
        scale = (np.abs(effects) + np.abs(gaps)).max()
        runs = []
        for chunk in (1, 3, 29):
            monkeypatch.setattr(kernel, "CHUNK", chunk)
            runs.append(enumerate_exact(s, f, g))
        for dist in runs:
            assert dist.estimators == want
            for est in want:
                npt.assert_allclose(dist.tau_hat[est], ref[est][0], rtol=0, atol=1e-15 * scale)
                npt.assert_allclose(dist.s2[est], ref[est][1], rtol=0, atol=1e-15 * scale**2)
                assert dist.tau_hat[est].tobytes() == runs[0].tau_hat[est].tobytes()
                assert dist.s2[est].tobytes() == runs[0].s2[est].tobytes()

    @pytest.mark.parametrize("n,transforms", [
        (9, (None, None)),
        (9, (TransformSpec.select([1]), TransformSpec.select([2]))),
        (9, (TransformSpec.select([1, 2]), TransformSpec.log())),
        (12, (None, None)),
        (12, (IDENT, IDENT)),
        (12, (TransformSpec.exp(), TransformSpec.log())),
    ])
    def test_twins_give_the_unpaired_fits_bit_for_bit(self, n, transforms):
        # enumerate_exact fits the codes below 2^(n-1), each with its
        # twin 2^n - 1 - c as a second response on the same design; the
        # kernel over all 2^n codes, one response each, from the same
        # half-table sign products, is the reference.
        s = generate_sample(n, "nonparallel", seed=n)
        dist = enumerate_exact(s, *transforms)
        ref = _unpaired_enumeration(s, *transforms, dist.estimators)
        assert dist.estimators == (("C",) if transforms[0] is None else ("C", "R1", "R2", "R2P"))
        for est in dist.estimators:
            assert dist.tau_hat[est].tobytes() == ref[est][0].tobytes(), est
            assert dist.s2[est].tobytes() == ref[est][1].tobytes(), est

    def test_singular_twins_are_refused_as_unpaired(self):
        # m is v0*d for the signs v0 of code 135, so v*d lies in the
        # design's m block exactly at code 135 and at its twin, code 120,
        # the first singular code; |d| is not constant, so no code puts
        # v*d along the ones vector.
        d = np.array([1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0])
        v0 = assignment_signs(np.array([135]), 8)[0]
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 2, 4))
        x[:, 0, 0] = x[:, 1, 0] + d
        x[:, :, 1] = (v0 * d)[:, None]
        table = PotentialOutcomeSample(r_t=rng.standard_normal((8, 2)),
                                       r_c=rng.standard_normal((8, 2)), x=x)
        f, g = TransformSpec.select([1]), TransformSpec.select([2])
        with pytest.raises(RankDeficient) as paired:
            enumerate_exact(table, f, g)
        with pytest.raises(RankDeficient) as unpaired:
            _unpaired_enumeration(table, f, g, ("C", "R1", "R2", "R2P"))
        assert str(paired.value) == str(unpaired.value) == (
            "assignment code 120: the regression design is rank deficient "
            "(singular under 2 of 256 assignment codes)"
        )

    def test_summary_shape(self, rng):
        s = make_sample(rng, 6)
        doc = enumerate_exact(s, IDENT, TransformSpec.select([])).summary()
        assert doc["assignments"] == 64
        assert set(doc["estimators"]) == {"C", "R1", "R2"}
        for cell in doc["estimators"].values():
            assert set(cell) == {"mean", "variance", "mean_s2", "rmse", "coverage"}


SUMMARY_FIELDS = ("mean", "variance", "rmse", "coverage", "mean_se", "mean_s2")


class TestSummarize:
    def test_grid_rows_reduce_bit_for_bit_as_alone(self, rng):
        tau = rng.standard_normal((5, 300))
        s2 = rng.random((5, 300)) * 2.0
        target = rng.standard_normal(5) * 0.1
        grid = _summarize(tau, s2, target, 0.05)
        for t in range(5):
            row = _summarize(tau[t], s2[t], float(target[t]), 0.05)
            for name in SUMMARY_FIELDS:
                got = np.asarray(getattr(grid, name)[t])
                assert got.tobytes() == np.asarray(getattr(row, name), got.dtype).tobytes(), name

    def test_one_row_gives_python_numbers(self, rng):
        tau, s2 = rng.standard_normal(50), rng.random(50)
        summ = _summarize(tau, s2, 0.0, 0.05)
        for name in SUMMARY_FIELDS:
            assert type(getattr(summ, name)) is float, name

    def test_sate_study_summarizes_estimators_once_per_slab(self, monkeypatch):
        calls = {"slab": 0, "summarize": []}
        sate_columns, summarize = engine._sate_columns, engine._summarize

        def counted_slab(*args, **kwargs):
            calls["slab"] += 1
            return sate_columns(*args, **kwargs)

        def counted_summarize(tau, *args):
            calls["summarize"].append(tau.shape)
            return summarize(tau, *args)

        monkeypatch.setattr(engine, "_sate_columns", counted_slab)
        monkeypatch.setattr(engine, "_summarize", counted_summarize)
        monkeypatch.setattr(kernel, "CHUNK", 40)
        seen = record_sign_products(monkeypatch)
        cfg = StudyConfig(mode="sate", setting="nonparallel", n=12, samples=10,
                          randomizations=10, seed=105)
        cols = _study_block(cfg, range(10))
        assert all(col.shape == (10,) for col in cols.values())
        assert calls["slab"] == 1
        assert seen == [(range(0, 4), 10), (range(4, 8), 10), (range(8, 10), 10)]
        assert calls["summarize"] == [(10, 10)] * 3

    def test_sate_study_whitens_each_slab_once(self, monkeypatch):
        shapes = []
        whitened_of = kernel.Whitened.of.__func__

        def counted_of(cls, d, m):
            shapes.append(d.shape[0])
            return whitened_of(cls, d, m)

        monkeypatch.setattr(kernel.Whitened, "of", classmethod(counted_of))
        monkeypatch.setattr(kernel, "CHUNK", 40)
        seen = record_sign_products(monkeypatch)
        cfg = StudyConfig(mode="sate", setting="nonparallel", n=12, samples=10,
                          randomizations=10, seed=105)
        _study_block(cfg, range(10))
        assert shapes == [10]  # one slab of all ten tables, for three kernel passes
        assert seen == [(range(0, 4), 10), (range(4, 8), 10), (range(8, 10), 10)]


class TestRunMonteCarlo:
    def test_single_draw_coverage_is_binary(self, rng):
        s = make_sample(rng, 8)
        mc = run_monte_carlo(s, 1, estimators=("C",), rng=substream(8, ROLE_ASSIGN))
        assert mc.per["C"].coverage in (0.0, 1.0)

    def test_rmse_decomposition(self, rng):
        s = make_sample(rng, 10)
        mc = run_monte_carlo(
            s, 500, f=IDENT, g=TransformSpec.select([1]),
            estimators=("C", "R1", "R2"), rng=substream(9, ROLE_ASSIGN),
        )
        for summ in mc.per.values():
            bias = summ.mean - mc.target
            assert summ.rmse**2 == pytest.approx(
                bias**2 + summ.variance, rel=1e-9
            )

    def test_converges_to_enumeration(self, rng):
        s = make_sample(rng, 10)
        f, g = TransformSpec.select([1, 2]), TransformSpec.select([3])
        dist = enumerate_exact(s, f, g)
        b = 4000
        mc = run_monte_carlo(
            s, b, f=f, g=g, estimators=("C", "R1", "R2"),
            rng=substream(10, ROLE_ASSIGN),
        )
        for est in ("C", "R1", "R2"):
            exact_mean = dist.mean(est)
            exact_sd = np.sqrt(dist.variance(est))
            assert abs(mc.per[est].mean - exact_mean) < 3 * exact_sd / np.sqrt(b)
            # variance of the sample variance ~ 2 var^2 / b for Gaussian-ish draws
            assert abs(mc.per[est].variance - dist.variance(est)) < (
                3 * dist.variance(est) * np.sqrt(2.0 / b) + 1e-12
            )

    def test_parallel_coverage_near_nominal(self):
        s = generate_sample(100, "parallel", seed=2026)
        mc = run_monte_carlo(
            s, 2000, f=IDENT, g=IDENT, rng=substream(11, ROLE_ASSIGN)
        )
        for est in ("C", "R1", "R2"):
            assert mc.per[est].coverage == pytest.approx(0.95, abs=0.02)

    def test_singular_assignments_refused(self, rng):
        # constant within-pair difference: any all-equal sign vector makes
        # [1 | v*d] collinear, so a run that draws one is refused at the
        # first, and a run that draws none is summarized
        x = rng.standard_normal((6, 2, 4))
        x[:, 0, 0] = x[:, 1, 0] + 1.0
        s = PotentialOutcomeSample(
            r_t=rng.standard_normal((6, 2)), r_c=rng.standard_normal((6, 2)), x=x
        )
        refused = 0
        for k in range(40):
            signs = randomize(6, substream(12, ROLE_ASSIGN, k), 64)
            equal = np.flatnonzero(np.abs(signs.sum(axis=1)) == 6)
            run = partial(
                run_monte_carlo, s, 64, f=TransformSpec.select([1]), g=TransformSpec.select([2]),
                estimators=("R1",), rng=substream(12, ROLE_ASSIGN, k),
            )
            if equal.size == 0:
                assert np.isfinite(run().per["R1"].mean)
                continue
            refused += 1
            with pytest.raises(RankDeficient) as info:
                run()
            assert str(info.value) == (
                f"draw {equal[0]}: the regression design is rank deficient "
                f"(singular under {equal.size} of 64 draws)"
            )
        assert 0 < refused < 40

    def test_bad_inputs_rejected(self, rng):
        s = make_sample(rng, 8)
        with pytest.raises(ConfigError):
            run_monte_carlo(s, 0)
        with pytest.raises(ConfigError):
            run_monte_carlo(s, 5, estimators=("R1",))  # no transforms given


class TestAsymptoticAgreement:
    def test_adjusted_variances_agree_and_beat_the_mean(self):
        s = generate_sample(2000, "nonparallel", seed=77)
        mc = run_monte_carlo(
            s, 2000, f=IDENT, g=IDENT, rng=substream(13, ROLE_ASSIGN)
        )
        v1, v2, vc = (mc.per[e].variance for e in ("R1", "R2", "C"))
        assert abs(v1 - v2) / v1 < 0.05
        assert v1 < vc and v2 < vc

    def test_residual_variance_gap_matches_effect_spread(self):
        # n * E[S^2_R1] - n * var(tau_R1) ~ sum((Delta - mean)^2) / n
        s = generate_sample(2000, "nonparallel", seed=78)
        mc = run_monte_carlo(
            s, 2000, f=IDENT, g=IDENT, estimators=("R1",),
            rng=substream(14, ROLE_ASSIGN),
        )
        n = s.n
        gap = n * mc.per["R1"].mean_s2 - n * mc.per["R1"].variance
        delta = s.effects
        spread = ((delta - delta.mean()) ** 2).sum() / n
        assert gap == pytest.approx(spread, rel=0.10)

    def test_r2_variance_estimate_not_above_r1(self):
        # single assignment per fresh table; allow 2% slack, rare violations
        violations = 0
        gaps = []
        for k in range(20):
            s = generate_sample(2000, "nonparallel", seed=200 + k)
            v = randomize(2000, substream(15, ROLE_ASSIGN, k))
            exp, _ = reveal(s, v)
            dm = build_design(exp, IDENT, IDENT)
            r1 = estimate_r1(dm)
            r2 = estimate_r2(dm)
            r2p = superpop_correct(r2, dm)
            if r2.s2 > r1.s2 * 1.02:
                violations += 1
            gaps.append(abs(r1.s2 - r2p.s2) / r1.s2)
        assert violations <= 1
        assert np.median(gaps) < 0.05


class TestRunStudy:
    def test_sate_report_shape_and_quantile_bracketing(self):
        cfg = StudyConfig(
            mode="sate", setting="parallel", n=16, samples=6,
            randomizations=12, seed=101,
        )
        report = run_study(cfg)
        assert set(report.metrics) == {
            "coverage_C", "coverage_R1", "coverage_R2",
            "se_ratio_R1_C", "se_ratio_R2_C", "se_ratio_R2_R1",
            "rmse_ratio_R1_C", "rmse_ratio_R2_C",
        }
        for cell in report.metrics.values():
            assert cell["q025"] <= cell["median"] <= cell["q975"]
        csv_text = report.to_csv()
        assert csv_text.startswith("metric,median,q2.5,q97.5\n")
        assert len(csv_text.strip().splitlines()) == 9

    def test_pate_report_shape(self):
        cfg = StudyConfig(
            mode="pate", setting="nonparallel", n=16, samples=25,
            randomizations=7, seed=102,
        )
        report = run_study(cfg)
        assert report.config.randomizations == 1  # forced in pate mode
        assert set(report.metrics) == {
            "coverage_C", "coverage_R1", "coverage_R2", "coverage_R2P",
            "se_sd_ratio_C", "se_sd_ratio_R1", "se_sd_ratio_R2", "se_sd_ratio_R2P",
            "sd_ratio_R2_R1", "sd_ratio_R1_C", "sd_ratio_R2_C",
        }
        assert report.to_csv().startswith("metric,value\n")

    def test_deterministic_and_worker_independent(self):
        cfg = StudyConfig(
            mode="sate", setting="nonparallel", n=14, samples=6,
            randomizations=10, seed=103,
        )
        a = run_study(cfg)
        b = run_study(cfg)
        assert a.to_json_dict() == b.to_json_dict()
        two = StudyConfig(
            mode="sate", setting="nonparallel", n=14, samples=6,
            randomizations=10, seed=103, workers=2,
        )
        c = run_study(two)
        assert a.to_json_dict() == c.to_json_dict()

    def test_row_helper_is_deterministic(self):
        cfg = StudyConfig(
            mode="sate", setting="parallel", n=12, samples=1,
            randomizations=5, seed=104,
        )
        first, again, other = (
            {name: col.tobytes() for name, col in _study_block(cfg, [i]).items()}
            for i in (0, 0, 1)
        )
        assert first == again
        assert first != other

    @pytest.mark.parametrize(
        "bad",
        [
            dict(mode="both"),
            dict(setting="flat"),
            dict(samples=0),
            dict(randomizations=0),
            dict(alpha=1.5),
            dict(workers=0),
            dict(n=9),  # needs n > 9 for identity/identity
        ],
    )
    def test_config_validation(self, bad):
        base = dict(
            mode="sate", setting="parallel", n=16, samples=2, randomizations=2
        )
        base.update(bad)
        # too few pairs is the feasibility rule's data error in every command
        with pytest.raises(TooFewPairs if "n" in bad else ConfigError):
            run_study(StudyConfig(**base))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_negative_seed_refused_before_any_draw(self, workers):
        cfg = StudyConfig(mode="pate", setting="nonparallel", n=25, samples=4,
                          seed=-1, workers=workers)
        with pytest.raises(ConfigError, match="^seed: must be >= 0, got -1$"):
            run_study(cfg)


class TestLemmaDiagnostics:
    def test_fixed_unit_signs_reduce_to_raw_cross_block(self, rng):
        s = make_sample(rng, 20)
        f, g = TransformSpec.select([1, 2]), TransformSpec.select([3, 4])
        diag = lemma_diagnostics(s, f, g, reps=1, signs=np.ones(20))
        d = s.x[:, 0, :2] - s.x[:, 1, :2]
        m_raw = (s.x[:, 0, 2:] + s.x[:, 1, 2:]) / 2.0
        m = m_raw - m_raw.mean(axis=0)
        m = m - m.mean(axis=0)
        assert diag.off_block[0] == pytest.approx(
            np.abs(d.T @ m).max() / 20, rel=1e-12
        )

    def test_m_block_of_gram_is_deterministic(self, rng):
        s = make_sample(rng, 15)
        d = s.x[:, 0, :2] - s.x[:, 1, :2]
        m_raw = (s.x[:, 0, 2:] + s.x[:, 1, 2:]) / 2.0
        m = m_raw - m_raw.mean(axis=0)
        v = randomize(15, substream(16, ROLE_ASSIGN))
        a = np.hstack([v[:, None] * d, m])
        gram = a.T @ a / 15
        npt.assert_allclose(gram[2:, 2:], m.T @ m / 15, rtol=1e-12)

    def test_off_block_shrinks_at_root_n_rate(self, rng):
        meds = []
        for n in (200, 800):
            s = make_sample(rng, n)
            diag = lemma_diagnostics(
                s, IDENT, IDENT, reps=200, rng=substream(17, ROLE_ASSIGN, n)
            )
            meds.append(diag.median_off_block)
        ratio = meds[1] / meds[0]
        assert 0.55 / 2 < ratio < 1.6 / 2

    def test_ones_residual_small_at_moderate_n(self):
        s = generate_sample(400, "nonparallel", seed=301)
        diag = lemma_diagnostics(
            s, IDENT, IDENT, reps=50, rng=substream(18, ROLE_ASSIGN)
        )
        assert diag.median_ones_residual < 0.1
        assert diag.to_json_dict()["n"] == 400
