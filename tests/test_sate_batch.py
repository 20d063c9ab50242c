"""In-sample study rows from stacked tables, several tables per kernel call.

Each row must be bit for bit the row of the per-sample reference below,
which builds the table as a sample object and runs it through
``run_monte_carlo``. Rows must not depend on the task block they are
computed in, on the number of tables per kernel call or on the worker
count, and a sate study must build no per-sample object.
"""

import json

import numpy as np
import pytest

from paired_adjust import randomization_engine as engine
from paired_adjust.cli import main
from paired_adjust.dgp import PotentialOutcomeSample, generate_sample
from paired_adjust.errors import NonFiniteTransform
from paired_adjust.experiment_model import TransformSpec
from paired_adjust.randomization_engine import StudyConfig, _sate_rows, run_monte_carlo, run_study
from paired_adjust.rng import ROLE_ASSIGN, ROLE_SAMPLE, substream

T = TransformSpec


def _sate_row(config, idx):
    """Reference row: index ``idx``'s table as a sample, through run_monte_carlo."""
    sample = generate_sample(
        config.n, config.setting, rng=substream(config.seed, ROLE_SAMPLE, idx)
    )
    mc = run_monte_carlo(
        sample,
        config.randomizations,
        alpha=config.alpha,
        f=config.f,
        g=config.g,
        estimators=("C", "R1", "R2"),
        rng=substream(config.seed, ROLE_ASSIGN, idx),
    )
    c, r1, r2 = mc.per["C"], mc.per["R1"], mc.per["R2"]
    return {
        "coverage_C": c.coverage,
        "coverage_R1": r1.coverage,
        "coverage_R2": r2.coverage,
        "se_ratio_R1_C": r1.mean_se / c.mean_se,
        "se_ratio_R2_C": r2.mean_se / c.mean_se,
        "se_ratio_R2_R1": r2.mean_se / r1.mean_se,
        "rmse_ratio_R1_C": r1.rmse / c.rmse,
        "rmse_ratio_R2_C": r2.rmse / c.rmse,
    }


def _config(f, g, **kw):
    base = dict(mode="sate", setting="nonparallel", n=30, samples=23, randomizations=40,
                seed=41, f=f, g=g)
    base.update(kw)
    return StudyConfig(**base)


@pytest.mark.parametrize(
    "f,g",
    [(T.identity(), T.identity()), (T.power(2), T.log()), (T.select([1, 2]), T.select([3]))],
    ids=lambda t: json.dumps(t.to_dict()),
)
def test_stacked_rows_match_per_sample_reference(f, g):
    cfg = _config(f, g)
    rows = _sate_rows(cfg, range(cfg.samples))
    # repr compares every bit and treats NaN metrics as equal
    assert repr(rows) == repr([_sate_row(cfg, i) for i in range(cfg.samples)])


def test_singular_draws_match_per_sample_reference():
    # exp/exp at n=25: many tables have every R2 draw singular, so their
    # R2 metrics are NaN in both paths.
    cfg = _config(T.exp(), T.exp(), n=25, samples=12, randomizations=20, seed=3)
    rows = _sate_rows(cfg, range(cfg.samples))
    assert any(np.isnan(row["coverage_R2"]) for row in rows)
    assert repr(rows) == repr([_sate_row(cfg, i) for i in range(cfg.samples)])


def test_rows_independent_of_block_and_call_size(monkeypatch):
    cfg = _config(T.power(2), T.log(), samples=20, randomizations=30)
    whole = _sate_rows(cfg, range(20))
    ones = [row for i in range(20) for row in _sate_rows(cfg, [i])]
    sevens = [row for lo in range(0, 20, 7) for row in _sate_rows(cfg, range(lo, min(lo + 7, 20)))]
    assert repr(ones) == repr(whole) == repr(sevens)

    reports = []
    for draws in (1, 3 * 30, 10**6):  # one table per call, three, all of a task
        monkeypatch.setattr(engine, "_SATE_DRAWS", draws)
        assert repr(_sate_rows(cfg, range(20))) == repr(whole)
        report = run_study(cfg)
        reports.append((json.dumps(report.to_json_dict(), sort_keys=True), report.to_csv()))
    assert reports[0] == reports[1] == reports[2]


def test_sate_study_builds_no_sample_objects(monkeypatch):
    built, streams = [], []
    post_init = PotentialOutcomeSample.__post_init__

    def counting_post_init(self):
        built.append(1)
        post_init(self)

    def counting_substream(*args):
        streams.append(args)
        return substream(*args)

    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("a sate study called run_monte_carlo")

    monkeypatch.setattr(PotentialOutcomeSample, "__post_init__", counting_post_init)
    monkeypatch.setattr(engine, "substream", counting_substream)
    monkeypatch.setattr(engine, "run_monte_carlo", no_monte_carlo)
    cfg = _config(T.identity(), T.identity(), samples=30, seed=42)
    run_study(cfg)
    assert built == []
    assert len(streams) == 2 * cfg.samples
    assert sorted(streams) == sorted(
        (42, role, i) for role in (ROLE_SAMPLE, ROLE_ASSIGN) for i in range(30)
    )


def test_failing_transform_raises_what_the_first_table_raises_alone(monkeypatch):
    # Table 1 has a non-positive covariate, so log fails on it alone;
    # table 2 has one too large for exp. Over the stack, f = exp fails
    # first, on table 2; alone, table 1 gets through f and fails in g.
    stacked_tables = engine._stacked_tables
    block = []

    def crafted(normals, setting):
        w, r_t, r_c, x = stacked_tables(normals, setting)
        for j, idx in enumerate(block):
            if idx == 1:
                x[j, 0, 0, 0] = -1.0
            if idx == 2:
                x[j, 0, 0, 1] = 1e3
        return w, r_t, r_c, x

    monkeypatch.setattr(engine, "_stacked_tables", crafted)
    cfg = _config(T.exp(), T.log(), samples=4)
    messages = []
    for idxs in ([1], [2], range(4)):
        block[:] = idxs
        with pytest.raises(NonFiniteTransform) as info:
            _sate_rows(cfg, idxs)
        messages.append(str(info.value))
    assert "'log'" in messages[0] and "'exp'" in messages[1]
    assert messages[2] == messages[0]


@pytest.mark.filterwarnings("error")
def test_sate_study_identical_across_worker_counts(tmp_path, capsys):
    outputs = []
    for workers in ("1", "2"):
        out, csv = tmp_path / f"w{workers}.json", tmp_path / f"w{workers}.csv"
        code = main(["simulate", "--mode", "sate-study", "--setting", "nonparallel",
                     "--n", "40", "--S", "30", "--B", "50", "--f", "power:2", "--g", "log",
                     "--seed", "43", "--workers", workers, "--out", str(out), "--csv", str(csv)])
        assert code == 0
        outputs.append((out.read_bytes(), csv.read_bytes()))
    assert capsys.readouterr().err == ""
    assert outputs[0] == outputs[1]
