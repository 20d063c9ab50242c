import io
import json

import numpy as np
import numpy.testing as npt
import pytest

from paired_adjust import (
    MalformedRow,
    PairViolation,
    PotentialOutcomeSample,
    ROLE_SAMPLE,
    draw_pair_covariates,
    generate_sample,
    load_science_table,
    observe_covariates,
    response_surfaces,
    substream,
    write_science_table,
)
from paired_adjust.dgp import _stacked_tables
from paired_adjust.errors import DimensionMismatch


class TestDrawPairCovariates:
    def test_within_pair_correlation(self):
        w = draw_pair_covariates(100_000, substream(11, ROLE_SAMPLE))
        for p in range(4):
            rho = np.corrcoef(w[:, 0, p], w[:, 1, p])[0, 1]
            # cov = 1, var2 = 1.25 -> rho = 1/sqrt(1.25) ~ 0.894
            assert rho == pytest.approx(1 / np.sqrt(1.25), abs=0.01)

    def test_second_unit_variance(self):
        w = draw_pair_covariates(100_000, substream(12, ROLE_SAMPLE))
        for p in range(4):
            assert w[:, 1, p].var() == pytest.approx(1.25, abs=0.02)

    def test_same_stream_reproduces_exactly(self):
        a = draw_pair_covariates(50, substream(13, ROLE_SAMPLE))
        b = draw_pair_covariates(50, substream(13, ROLE_SAMPLE))
        npt.assert_array_equal(a, b)

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            draw_pair_covariates(0, substream(1, ROLE_SAMPLE))


class TestObserveCovariates:
    def test_value_at_zero(self):
        x = observe_covariates(np.zeros(4))
        npt.assert_allclose(x, [1.0, 10.0, 0.216, 400.0], rtol=1e-12)

    def test_value_at_unit_w2(self):
        x = observe_covariates(np.array([0.0, 1.0, 0.0, 0.0]))
        assert x[1] == pytest.approx(10.5)
        assert x[3] == pytest.approx(441.0)

    def test_vectorized_matches_per_unit(self, rng):
        w = rng.standard_normal((6, 2, 4))
        batch = observe_covariates(w)
        for i in range(6):
            for j in range(2):
                npt.assert_array_equal(batch[i, j], observe_covariates(w[i, j]))

    def test_wrong_width_rejected(self):
        with pytest.raises(DimensionMismatch):
            observe_covariates(np.zeros(3))


class TestResponseSurfaces:
    def test_parallel_surfaces_coincide(self, rng):
        w = rng.standard_normal((100, 4))
        mu_t, mu_c = response_surfaces(w, "parallel")
        npt.assert_array_equal(mu_t, mu_c)

    def test_nonparallel_effect_at_unit_w1(self):
        mu_t, mu_c = response_surfaces(np.array([1.0, 0.0, 0.0, 0.0]), "nonparallel")
        assert mu_t - mu_c == pytest.approx(13.7)  # 27.4 - 13.7

    def test_nonparallel_effect_mean_zero(self):
        w = substream(21, ROLE_SAMPLE).standard_normal((1_000_000, 4))
        mu_t, mu_c = response_surfaces(w, "nonparallel")
        assert (mu_t - mu_c).mean() == pytest.approx(0.0, abs=0.05)

    def test_unknown_setting_rejected(self):
        with pytest.raises(ValueError):
            response_surfaces(np.zeros(4), "crossed")


class TestGenerateSample:
    def test_parallel_effects_vanish_exactly(self):
        s = generate_sample(40, "parallel", seed=5)
        npt.assert_array_equal(s.r_t, s.r_c)
        assert s.sate == 0.0

    def test_nonparallel_sate_near_zero_at_scale(self):
        s = generate_sample(100_000, "nonparallel", seed=6)
        assert abs(s.sate) < 0.3  # sd(tau) ~ 21.6 -> se(sate) ~ 0.07

    def test_seed_determinism_and_distinctness(self):
        a = generate_sample(30, "nonparallel", seed=9)
        b = generate_sample(30, "nonparallel", seed=9)
        c = generate_sample(30, "nonparallel", seed=10)
        npt.assert_array_equal(a.r_t, b.r_t)
        npt.assert_array_equal(a.w, b.w)
        assert not np.array_equal(a.r_t, c.r_t)

    def test_noise_cancels_in_contrasts(self):
        s = generate_sample(50, "nonparallel", seed=14)
        mu_t, mu_c = response_surfaces(s.w, "nonparallel")
        scale = np.abs(s.r_t).max()
        npt.assert_allclose(s.r_t - s.r_c, mu_t - mu_c, atol=1e-12 * scale)

    def test_observed_covariates_match_latents(self):
        s = generate_sample(20, "parallel", seed=15)
        npt.assert_array_equal(s.x, observe_covariates(s.w))

    def test_derived_quantities(self):
        r_t = np.array([[2.0, 4.0], [1.0, 1.0]])
        r_c = np.array([[0.0, 2.0], [1.0, 3.0]])
        s = PotentialOutcomeSample(r_t=r_t, r_c=r_c)
        npt.assert_allclose(s.levels, [[1.0, 3.0], [1.0, 2.0]])
        npt.assert_allclose(s.effects, [2.0, -1.0])
        assert s.sate == pytest.approx(0.5, abs=1e-12)


def _three_call_table(n, setting, rng):
    """Reference table: the latents, their noise and the outcome noise
    drawn by three separate calls, as generation was first written."""
    w1 = rng.standard_normal((n, 4))
    w2 = w1 + 0.5 * rng.standard_normal((n, 4))
    w = np.stack([w1, w2], axis=1)
    eps = rng.standard_normal((n, 2))
    mu_t, mu_c = response_surfaces(w, setting)
    return {"r_t": mu_t + eps, "r_c": mu_c + eps, "x": observe_covariates(w), "w": w}


class TestStackedTables:
    """One draw of 10n normals per table, stacked, gives the bits of three draws."""

    @pytest.mark.parametrize("n", [1, 2, 7, 25, 100])
    @pytest.mark.parametrize("setting", ["parallel", "nonparallel"])
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_stacked_block_matches_three_call_oracle(self, n, setting, block):
        normals = np.array(
            [substream(71, ROLE_SAMPLE, i).standard_normal(10 * n) for i in range(block)]
        )
        w, r_t, r_c, x = _stacked_tables(normals, setting)
        stacked = {"r_t": r_t, "r_c": r_c, "x": x, "w": w}
        for i in range(block):
            ref = _three_call_table(n, setting, substream(71, ROLE_SAMPLE, i))
            for name, arr in stacked.items():
                assert np.array_equal(arr[i], ref[name]), (i, name)

    @pytest.mark.parametrize("n", [1, 2, 7, 25, 100])
    @pytest.mark.parametrize("setting", ["parallel", "nonparallel"])
    def test_generate_sample_matches_three_call_oracle(self, n, setting):
        pairs = [
            (generate_sample(n, setting, seed=72), substream(72, ROLE_SAMPLE)),
            (generate_sample(n, setting, rng=substream(72, ROLE_SAMPLE, 5)),
             substream(72, ROLE_SAMPLE, 5)),
        ]
        for sample, rng in pairs:
            ref = _three_call_table(n, setting, rng)
            for name, arr in ref.items():
                assert np.array_equal(getattr(sample, name), arr), name


class TestScienceTableIO:
    def test_round_trip_with_sidecar(self, tmp_path):
        s = generate_sample(12, "nonparallel", seed=33)
        csv_path = tmp_path / "sci.csv"
        meta_path = tmp_path / "sci.json"
        write_science_table(s, csv_path, meta_path)
        back = load_science_table(csv_path, meta_path)
        npt.assert_array_equal(back.r_t, s.r_t)
        npt.assert_array_equal(back.r_c, s.r_c)
        npt.assert_array_equal(back.w, s.w)
        npt.assert_array_equal(back.x, s.x)
        assert back.setting == "nonparallel"
        assert back.seed == 33
        meta = json.loads(meta_path.read_text())
        assert meta["n"] == 12
        assert meta["sate"] == pytest.approx(s.sate)

    def test_outcome_only_table(self):
        text = "pair,unit,r_t,r_c\n1,1,0.5,0.5\n1,2,-0.5,-0.5\n2,1,0.0,0.0\n2,2,0.0,0.0\n"
        s = load_science_table(io.StringIO(text))
        assert s.n == 2
        assert s.w is None and s.x is None
        assert s.sate == 0.0

    def test_sidecar_sate_mismatch_rejected(self, tmp_path):
        s = generate_sample(6, "nonparallel", seed=40)
        csv_path = tmp_path / "sci.csv"
        write_science_table(s, csv_path)
        meta_path = tmp_path / "sci.json"
        meta_path.write_text(
            json.dumps({"n": 6, "setting": "nonparallel", "seed": 40, "sate": 99.0})
        )
        with pytest.raises(MalformedRow):
            load_science_table(csv_path, meta_path)

    @pytest.mark.parametrize("token", ["inf", "-inf"])
    def test_non_finite_covariate_rejected(self, token):
        text = (
            "pair,unit,x1,x2,x3,x4,r_t,r_c\n"
            "1,1,0.1,0.2,0.3,0.4,0.5,0.5\n"
            "1,2,0.1,0.2,0.3,0.4,-0.5,-0.5\n"
            f"2,1,0.1,{token},0.3,0.4,0.0,0.0\n"
            "2,2,0.1,0.2,0.3,0.4,0.0,0.0\n"
        )
        with pytest.raises(MalformedRow, match=f"line 4: non-finite value '{token}'"):
            load_science_table(io.StringIO(text))

    def test_wrong_header_rejected(self):
        text = "pair,unit,rt,rc\n1,1,0.5,0.5\n1,2,-0.5,-0.5\n"
        with pytest.raises(MalformedRow):
            load_science_table(io.StringIO(text))

    def test_lone_unit_rejected(self):
        text = "pair,unit,r_t,r_c\n1,1,0.5,0.5\n"
        with pytest.raises(PairViolation):
            load_science_table(io.StringIO(text))
