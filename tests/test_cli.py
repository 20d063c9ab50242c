import json
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from paired_adjust import (
    TransformSpec,
    build_design,
    estimate_r2,
    generate_sample,
    least_squares,
    load_experiment_csv,
    randomize,
    reveal,
    substream,
    superpop_correct,
    write_experiment_csv,
    write_science_table,
)
from paired_adjust import cli, estimators
from paired_adjust.cli import build_parser, main, parse_transform
from paired_adjust.errors import ConfigError
from paired_adjust.rng import ROLE_ASSIGN

from conftest import make_sample

IDENT = TransformSpec.identity()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def experiment_csv(tmp_path, rng):
    s = make_sample(rng, 12)
    v = randomize(12, substream(40, ROLE_ASSIGN))
    exp, _ = reveal(s, v)
    path = tmp_path / "exp.csv"
    write_experiment_csv(exp, path)
    return path


@pytest.fixture()
def science_csv(tmp_path):
    s = generate_sample(8, "nonparallel", seed=11)
    path = tmp_path / "table.csv"
    sidecar = tmp_path / "table.json"
    write_science_table(s, path, sidecar)
    return path, sidecar


class TestParseTransform:
    @pytest.mark.parametrize(
        "text,spec",
        [
            ("identity", TransformSpec.identity()),
            ("log", TransformSpec.log()),
            ("power:3", TransformSpec.power(3)),
            ("select:1,3", TransformSpec.select([1, 3])),
            ("select:", TransformSpec.select([])),
        ],
    )
    def test_shorthand(self, text, spec):
        assert parse_transform(text) == spec

    def test_mapping_form(self):
        assert parse_transform({"kind": "power", "degree": 2}) == TransformSpec.power(2)

    @pytest.mark.parametrize("bad", ["power:x", "select:0", "cubic", "log:2", {"kind": "?"}])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ConfigError):
            parse_transform(bad)


class TestAnalyze:
    def test_report_shape(self, capsys, experiment_csv):
        code, out, _ = run_cli(capsys, "analyze", "--input", str(experiment_csv))
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 12
        assert [r["estimator"] for r in doc["estimates"]] == ["C", "R1", "R2", "R2"]
        assert [r["target"] for r in doc["estimates"]] == ["sate", "sate", "sate", "pate"]
        for row in doc["estimates"]:
            assert set(row) >= {"tau_hat", "s2", "flavor", "dof", "ci", "alpha"}
            lo, hi = row["ci"]
            assert lo <= row["tau_hat"] <= hi
        assert doc["estimates"][3]["flavor"] == "superpop-corrected"
        assert doc["r2_interval_uses"] == "classical"

    def test_pate_target_switches_interval_source(self, capsys, experiment_csv):
        _, out, _ = run_cli(
            capsys, "analyze", "--input", str(experiment_csv), "--target", "pate"
        )
        assert json.loads(out)["r2_interval_uses"] == "superpop-corrected"

    def test_hc_flavor_recorded(self, capsys, experiment_csv):
        _, out, _ = run_cli(
            capsys, "analyze", "--input", str(experiment_csv), "--variance", "HC2"
        )
        doc = json.loads(out)
        assert doc["estimates"][1]["flavor"] == "HC2"
        assert doc["estimates"][2]["flavor"] == "HC2"
        # superpop row always builds on the classical R2 fit
        assert doc["estimates"][3]["flavor"] == "superpop-corrected"

    @pytest.mark.parametrize("variance", ["HC2", "HC3"])
    def test_one_r2_fit_serves_both_variances(self, capsys, experiment_csv, monkeypatch, variance):
        fits = []

        def counted(x, y):
            fits.append(x.shape[1])
            return least_squares(x, y)

        monkeypatch.setattr(estimators, "least_squares", counted)
        code, out, _ = run_cli(
            capsys, "analyze", "--input", str(experiment_csv), "--variance", variance,
            "--target", "pate",
        )
        assert code == 0
        assert fits == [4, 8]  # R1, then R2 for its flavored and its classical variance
        dm = build_design(load_experiment_csv(experiment_csv), IDENT, IDENT)
        pate = superpop_correct(estimate_r2(dm), dm).to_report_dict("pate", 0.05)
        assert json.loads(out)["estimates"][3] == pate

    def test_transforms_change_adjusted_rows_only(self, capsys, experiment_csv):
        _, base, _ = run_cli(capsys, "analyze", "--input", str(experiment_csv))
        _, alt, _ = run_cli(
            capsys, "analyze", "--input", str(experiment_csv),
            "--f", "select:1,2", "--g", "select:3",
        )
        c0 = json.loads(base)["estimates"][0]
        c1 = json.loads(alt)["estimates"][0]
        assert c0 == c1
        assert json.loads(base)["estimates"][1] != json.loads(alt)["estimates"][1]

    @pytest.mark.filterwarnings("error")
    def test_estimates_do_not_depend_on_covariate_units(self, capsys, tmp_path):
        s = generate_sample(16, "nonparallel", seed=11)
        exp, _ = reveal(s, randomize(16, substream(11, ROLE_ASSIGN)))
        scales = [((0,), 1e9), ((0,), 1e12), ((0,), 1e-9), ((3,), 1e9), ((3,), 1e12),
                  ((0, 1, 2, 3), 1e6), ((0, 1, 2, 3), 1e300)]
        # Without an m block, then with the default one and the
        # superpopulation-corrected R2 row, whose m columns are x's.
        for flags in (("--g", "select:"), ("--target", "pate")):
            runs = {}
            for cols, scale in [((0,), 1.0), *scales]:
                x = exp.x.copy()
                x[:, :, cols] *= scale
                path = tmp_path / f"x{cols}_{scale:g}.csv"
                write_experiment_csv(type(exp)(x=x, z=exp.z, y=exp.y), path)
                code, out, err = run_cli(
                    capsys, "analyze", "--input", str(path), *flags, "--variance", "HC2"
                )
                assert (code, err) == (0, ""), (flags, cols, scale)
                runs[cols, scale] = json.loads(out)["estimates"]
            base = runs.pop(((0,), 1.0))
            assert any(row["beta_M"] for row in base) == (flags[0] == "--target")
            for (cols, scale), rows in runs.items():
                assert len(rows) == len(base)
                for row, want in zip(rows, base):
                    # A slope is per unit of its column of x.
                    beta = [b * scale if k in cols else b for k, b in enumerate(row["beta_D"])]
                    beta += [b * scale if k in cols else b for k, b in enumerate(row["beta_M"])]
                    got = [row["tau_hat"], row["s2"], *beta]
                    assert got == pytest.approx(
                        [want["tau_hat"], want["s2"], *want["beta_D"], *want["beta_M"]], rel=1e-12
                    ), (flags, cols, scale, row["estimator"], row["flavor"])

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path, experiment_csv):
        target = tmp_path / "report.json"
        argv = ("analyze", "--input", str(experiment_csv), "--out", str(target))
        assert run_cli(capsys, *argv)[0] == 0
        plain = target.read_bytes()
        experiment_csv.write_bytes(b"\xef\xbb\xbf" + experiment_csv.read_bytes())
        assert run_cli(capsys, *argv)[0] == 0
        assert target.read_bytes() == plain

    def test_out_writes_file(self, capsys, tmp_path, experiment_csv):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "analyze", "--input", str(experiment_csv), "--out", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["n"] == 12


class TestSimulate:
    ARGS = (
        "simulate", "--setting", "parallel", "--n", "12", "--S", "3",
        "--B", "6", "--f", "select:1,2", "--g", "select:3",
        "--seed", "5", "--workers", "1",
    )

    def test_sate_study_runs_and_echoes_config(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["samples"] == 3
        assert doc["config"]["randomizations"] == 6
        assert doc["config"]["seed"] == 5
        assert "workers" not in doc["config"]
        assert "coverage_C" in doc["metrics"]

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGS)
        _, second, _ = run_cli(capsys, *self.ARGS)
        assert first == second

    def test_worker_count_does_not_change_output(self, capsys):
        _, one, _ = run_cli(capsys, *self.ARGS)
        argv = list(self.ARGS)
        argv[argv.index("--workers") + 1] = "2"
        _, two, _ = run_cli(capsys, *argv)
        assert one == two

    def test_csv_sidecar(self, capsys, tmp_path):
        csv_path = tmp_path / "metrics.csv"
        code, _, _ = run_cli(capsys, *self.ARGS, "--csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "metric,median,q2.5,q97.5"
        assert len(lines) == 9

    @pytest.mark.parametrize(
        "affinity,cpu_count,want",
        [({0}, 8, 1), ({0, 1, 2}, 8, 3), (None, 3, 3), (None, None, 1)],
    )
    def test_default_workers_are_the_usable_cpus(
        self, capsys, monkeypatch, affinity, cpu_count, want
    ):
        seen, run_study = [], cli.run_study

        def capturing(config):
            seen.append(config.workers)
            return run_study(replace(config, workers=1))

        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        monkeypatch.setattr(cli, "run_study", capturing)
        argv = self.ARGS[: self.ARGS.index("--workers")]
        assert run_cli(capsys, *argv)[0] == 0
        assert seen == [want]

    def test_report_holding_nan_is_3_before_any_file(self, capsys, monkeypatch, tmp_path):
        run_study = cli.run_study

        def with_nan(config):
            report = run_study(config)
            name, cell = next(iter(report.metrics.items()))
            return replace(report, metrics={**report.metrics, name: {**cell, "median": np.nan}})

        monkeypatch.setattr(cli, "run_study", with_nan)
        out, table = tmp_path / "study.json", tmp_path / "study.csv"
        code, stdout, err = run_cli(capsys, *self.ARGS, "--out", str(out), "--csv", str(table))
        assert code == 3 and stdout == ""
        assert err == ("paired-adjust: error: the report holds a NaN or an infinity, "
                       "which JSON cannot encode\n")
        assert not out.exists() and not table.exists()

    def test_pate_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--setting", "nonparallel", "--n", "12",
            "--S", "8", "--mode", "pate-study", "--f", "select:1,2",
            "--g", "select:3", "--seed", "6", "--workers", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["randomizations"] == 1
        assert "se_sd_ratio_R2P" in doc["metrics"]


class TestEnumerate:
    def test_summary_with_sidecar_check(self, capsys, science_csv):
        path, sidecar = science_csv
        code, out, _ = run_cli(
            capsys, "enumerate", "--input", str(path), "--meta", str(sidecar),
            "--f", "select:1", "--g", "select:2",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["assignments"] == 256
        cell = doc["summary"]["estimators"]["C"]
        assert cell["s2_margin"] == pytest.approx(
            cell["mean_s2"] - cell["variance"], rel=1e-12
        )

    def test_identity_default_needs_covariates(self, capsys, tmp_path):
        s = generate_sample(6, "parallel", seed=3)
        bare = type(s)(r_t=s.r_t, r_c=s.r_c, setting=s.setting, seed=s.seed)
        path = tmp_path / "outcomes.csv"
        write_science_table(bare, path)
        code, out, _ = run_cli(capsys, "enumerate", "--input", str(path))
        assert code == 0
        doc = json.loads(out)
        assert list(doc["summary"]["estimators"]) == ["C"]
        assert doc["config"]["f"] is None

    @pytest.mark.parametrize("n", [6, 8])
    def test_default_echoes_null_when_identity_does_not_fit(self, capsys, tmp_path, n):
        # identity on four covariates needs n > 9, so the default run
        # computes the mean alone and says it applied no transform
        path = tmp_path / "table.csv"
        write_science_table(generate_sample(n, "nonparallel", seed=11), path)
        code, out, _ = run_cli(capsys, "enumerate", "--input", str(path))
        assert code == 0
        doc = json.loads(out)
        assert list(doc["summary"]["estimators"]) == ["C"]
        assert doc["config"]["f"] is None and doc["config"]["g"] is None

    @pytest.mark.parametrize(
        "lone, paired",
        [
            (["--f", "select:1"], ["--f", "select:1", "--g", "identity"]),
            (["--g", "power:2"], ["--f", "identity", "--g", "power:2"]),
        ],
    )
    def test_lone_transform_pairs_with_identity(self, capsys, tmp_path, lone, paired):
        path = tmp_path / "table.csv"
        write_science_table(generate_sample(16, "nonparallel", seed=11), path)
        code, out, _ = run_cli(capsys, "enumerate", "--input", str(path), *lone)
        assert code == 0
        doc = json.loads(out)
        assert list(doc["summary"]["estimators"]) == ["C", "R1", "R2", "R2P"]
        want = json.loads(run_cli(capsys, "enumerate", "--input", str(path), *paired)[1])
        assert doc == want  # the report echoes identity for the missing transform

    def test_histogram_file(self, capsys, tmp_path, science_csv):
        path, _ = science_csv
        hist = tmp_path / "hist.csv"
        code, _, _ = run_cli(
            capsys, "enumerate", "--input", str(path),
            "--f", "select:1", "--g", "select:2", "--histogram", str(hist),
        )
        assert code == 0
        lines = hist.read_text().strip().splitlines()
        assert lines[0] == "estimator,bin_left,bin_right,count"
        # four estimators, 64 bins each
        assert len(lines) == 1 + 4 * 64
        counts = [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
        assert sum(counts) == 4 * 256

    @pytest.mark.filterwarnings("error")
    def test_covariate_units_near_the_float_range(self, capsys, tmp_path):
        s = generate_sample(12, "nonparallel", seed=11)
        summaries = []
        for scale in (1.0, 1e160):
            path = tmp_path / f"x{scale:g}.csv"
            write_science_table(
                type(s)(r_t=s.r_t, r_c=s.r_c, x=s.x * scale, setting=s.setting, seed=s.seed),
                path,
            )
            code, out, err = run_cli(
                capsys, "enumerate", "--input", str(path),
                "--f", "select:1,2", "--g", "select:3",
            )
            assert (code, err) == (0, "")
            summaries.append(json.loads(out)["summary"]["estimators"])
        assert list(summaries[1]) == ["C", "R1", "R2", "R2P"]
        for est, cell in summaries[0].items():
            for key, value in cell.items():
                assert summaries[1][est][key] == pytest.approx(value, rel=1e-12), (est, key)

    def test_sidecar_mismatch_is_a_data_error(self, capsys, science_csv):
        path, sidecar = science_csv
        meta = json.loads(sidecar.read_text())
        meta["sate"] += 1.0
        bad = sidecar.with_name("bad.json")
        bad.write_text(json.dumps(meta))
        code, _, err = run_cli(
            capsys, "enumerate", "--input", str(path), "--meta", str(bad)
        )
        assert code == 2
        assert "does not match" in err


class TestGenerate:
    def test_writes_table_and_sidecar(self, capsys, tmp_path):
        out = tmp_path / "sample.csv"
        code, stdout, _ = run_cli(
            capsys, "generate", "--n", "9", "--setting", "nonparallel",
            "--seed", "21", "--out", str(out),
        )
        assert code == 0
        meta = json.loads((tmp_path / "sample.json").read_text())
        assert json.loads(stdout) == meta
        assert meta["n"] == 9 and meta["seed"] == 21
        regen = generate_sample(9, "nonparallel", seed=21)
        assert meta["sate"] == regen.sate
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 1 + 18

    def test_round_trips_through_enumerate(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        run_cli(capsys, "generate", "--n", "7", "--setting", "parallel",
                "--seed", "2", "--out", str(out))
        code, _, _ = run_cli(
            capsys, "enumerate", "--input", str(out),
            "--meta", str(tmp_path / "t.json"),
        )
        assert code == 0


class TestConfigResolution:
    def test_file_supplies_flags_win(self, capsys, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"n": 9, "setting": "parallel", "seed": 1}))
        out = tmp_path / "a.csv"
        _, stdout, _ = run_cli(
            capsys, "generate", "--config", str(conf), "--seed", "2",
            "--out", str(out),
        )
        meta = json.loads(stdout)
        assert meta["n"] == 9  # from file
        assert meta["seed"] == 2  # flag beats file

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"n": 9, "setting": "parallel", "bogus": 1}))
        code, _, err = run_cli(
            capsys, "generate", "--config", str(conf), "--out", str(tmp_path / "x.csv")
        )
        assert code == 4
        assert "bogus" in err

    def test_env_seed_fallback(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PAIRED_ADJUST_SEED", "33")
        _, stdout, _ = run_cli(
            capsys, "generate", "--n", "6", "--setting", "parallel",
            "--out", str(tmp_path / "e.csv"),
        )
        assert json.loads(stdout)["seed"] == 33

    def test_flag_beats_env_seed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PAIRED_ADJUST_SEED", "33")
        _, stdout, _ = run_cli(
            capsys, "generate", "--n", "6", "--setting", "parallel",
            "--seed", "44", "--out", str(tmp_path / "e.csv"),
        )
        assert json.loads(stdout)["seed"] == 44

    def test_missing_required_option(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--n", "6")
        assert code == 4
        assert "--setting" in err or "--out" in err

    @pytest.mark.skipif(sys.version_info >= (3, 11), reason="tomllib available")
    def test_toml_config_refused_before_311(self, capsys, tmp_path):
        conf = tmp_path / "conf.toml"
        conf.write_text('n = 6\nsetting = "parallel"\n')
        code, _, err = run_cli(
            capsys, "generate", "--config", str(conf), "--out", str(tmp_path / "t.csv")
        )
        assert code == 4
        assert "TOML" in err

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="needs tomllib")
    def test_toml_config_parses_on_311(self, capsys, tmp_path):
        conf = tmp_path / "conf.toml"
        conf.write_text('n = 6\nsetting = "parallel"\nseed = 3\n')
        code, stdout, _ = run_cli(
            capsys, "generate", "--config", str(conf), "--out", str(tmp_path / "t.csv")
        )
        assert code == 0
        assert json.loads(stdout)["seed"] == 3


class TestExitCodes:
    def test_data_error_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("pair,unit,z,y,x1\n1,1,1,0.5,abc\n1,2,0,0.1,2.0\n")
        code, _, err = run_cli(capsys, "analyze", "--input", str(bad))
        assert code == 2
        assert err.startswith("paired-adjust: error:")

    def test_too_few_pairs_is_2(self, capsys, tmp_path, rng):
        s = make_sample(rng, 6)
        exp, _ = reveal(s, randomize(6, substream(41, ROLE_ASSIGN)))
        path = tmp_path / "small.csv"
        write_experiment_csv(exp, path)
        # identity/identity on four covariates needs n > 9
        assert run_cli(capsys, "analyze", "--input", str(path))[0] == 2

    def test_too_few_pairs_for_the_transforms_is_2_in_every_command(self, capsys, tmp_path):
        # one feasibility rule: identity on four covariates needs n > 9
        s = generate_sample(6, "nonparallel", seed=11)
        table, experiment = tmp_path / "table.csv", tmp_path / "experiment.csv"
        write_science_table(s, table)
        write_experiment_csv(reveal(s, randomize(6, substream(41, ROLE_ASSIGN)))[0], experiment)
        ident = ["--f", "identity", "--g", "identity"]
        for argv in (
            ["simulate", "--setting", "nonparallel", "--n", "6", "--S", "2", "--B", "2"],
            ["analyze", "--input", str(experiment)],
            ["enumerate", "--input", str(table), *ident],
        ):
            code, _, err = run_cli(capsys, *argv)
            assert (code, err) == (
                2, "paired-adjust: error: need n > K_D + K_M + 1, got n=6, K_D=4, K_M=4\n"
            ), argv[0]

    def test_rank_deficient_is_3(self, capsys, tmp_path, rng):
        s = make_sample(rng, 12)
        x = s.x.copy()
        x[:, :, 1] = x[:, :, 0]  # duplicate covariate column
        dup = type(s)(r_t=s.r_t, r_c=s.r_c, x=x)
        exp, _ = reveal(dup, randomize(12, substream(42, ROLE_ASSIGN)))
        path = tmp_path / "dup.csv"
        write_experiment_csv(exp, path)
        assert run_cli(capsys, "analyze", "--input", str(path))[0] == 3

    @pytest.mark.parametrize("gap, code", [(1e-3, 0), (1e-6, 3)])
    def test_covariate_left_at_most_1e_5_of_itself_is_3(self, capsys, tmp_path, rng, gap, code):
        # x2 = x1 + gap * noise leaves about gap of the vd:x2 column after
        # vd:x1 is projected out. The pivot test refuses a squared share of
        # at most 1e-10, so gap 1e-6 exits 3; a singular-value cutoff of
        # 1e-10 * sigma_max, with no squaring, would have fitted it.
        s = make_sample(rng, 12)
        x = s.x.copy()
        x[:, :, 1] = x[:, :, 0] + gap * rng.standard_normal((12, 2))
        exp, _ = reveal(type(s)(r_t=s.r_t, r_c=s.r_c, x=x), randomize(12, substream(42, ROLE_ASSIGN)))
        path = tmp_path / "near.csv"
        write_experiment_csv(exp, path)
        got, _, err = run_cli(
            capsys, "analyze", "--input", str(path), "--f", "select:1,2", "--g", "select:"
        )
        assert got == code
        assert ("column vd:x2 " in err) == (code == 3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rounding", [False, True], ids=["exact", "up_to_rounding"])
    def test_constant_pair_average_is_3(self, capsys, tmp_path, rng, rounding):
        s = make_sample(rng, 12)
        x = s.x.copy()
        if rounding:
            # Pair averages of a and 10 - a: 5 up to one rounding each.
            a = 3.3 * np.random.default_rng(3).standard_normal(12) + 0.1
            x[:, 0, 1], x[:, 1, 1] = a, 10.0 - a
            assert np.ptp((x[:, 0, 1] + x[:, 1, 1]) / 2.0) > 0.0
        else:
            x[:, :, 1] = 5.0  # x2 centers to a zero m column
        exp, _ = reveal(type(s)(r_t=s.r_t, r_c=s.r_c, x=x), randomize(12, substream(42, ROLE_ASSIGN)))
        path = tmp_path / "flat.csv"
        write_experiment_csv(exp, path)
        code, _, err = run_cli(capsys, "analyze", "--input", str(path), "--f", "select:1")
        assert code == 3
        assert "column m:x2 " in err

    def test_bad_alpha_is_4(self, capsys, experiment_csv):
        code, _, err = run_cli(
            capsys, "analyze", "--input", str(experiment_csv), "--alpha", "1.5"
        )
        assert code == 4
        assert "alpha" in err

    def test_bad_transform_is_4(self, capsys, experiment_csv):
        code, _, _ = run_cli(
            capsys, "analyze", "--input", str(experiment_csv), "--f", "power:x"
        )
        assert code == 4

    def test_enumeration_cap_is_5(self, capsys, tmp_path):
        s = generate_sample(17, "parallel", seed=1)
        path = tmp_path / "big.csv"
        write_science_table(s, path)
        code, _, err = run_cli(capsys, "enumerate", "--input", str(path))
        assert code == 5
        assert "17" in err

    def test_unknown_flag_exits_4(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["analyze", "--nope"])
        assert info.value.code == 4

    def test_missing_subcommand_exits_4(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 4

    def test_one_parser_serves_every_call(self, capsys, experiment_csv):
        assert build_parser() is build_parser()
        with pytest.raises(SystemExit) as info:
            build_parser.__wrapped__().parse_args(["analyze", "--nope"])
        assert info.value.code == 4
        fresh = capsys.readouterr().err

        code, out, _ = run_cli(capsys, "analyze", "--input", str(experiment_csv))
        assert code == 0 and json.loads(out)["n"] == 12
        with pytest.raises(SystemExit) as info:
            main(["analyze", "--nope"])
        assert info.value.code == 4
        err = capsys.readouterr().err
        assert err == fresh
        assert err.splitlines()[0] == "usage: paired-adjust [-h] [--version] command ..."
        code, out, _ = run_cli(capsys, *TestSimulate.ARGS)
        assert code == 0 and json.loads(out)["config"]["samples"] == 3

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "paired-adjust" in capsys.readouterr().out

    def test_select_beyond_generated_covariates_is_4(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--setting", "parallel", "--n", "20", "--S", "1",
            "--f", "select:5",
        )
        assert code == 4
        assert err.startswith("paired-adjust: error:") and "exceed" in err

    def test_select_beyond_csv_covariates_is_2(self, capsys, experiment_csv):
        code, _, err = run_cli(
            capsys, "analyze", "--input", str(experiment_csv), "--g", "select:7"
        )
        assert code == 2
        assert err.startswith("paired-adjust: error:") and "exceed" in err

    def test_select_beyond_table_covariates_is_2(self, capsys, tmp_path):
        path = tmp_path / "t10.csv"
        write_science_table(generate_sample(10, "nonparallel", seed=5), path)
        code, _, err = run_cli(
            capsys, "enumerate", "--input", str(path), "--f", "select:9", "--g", "identity"
        )
        assert code == 2
        assert err.startswith("paired-adjust: error:") and "exceed" in err
