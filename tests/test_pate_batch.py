"""Population-study rows through the shared kernel, in blocks of tables.

Every row of a block comes from the kernel. The rows must match a
single-fit reference built from the public estimators to solver
precision, must not depend on the block size or the worker count, and
the first failing table of a block must raise what the reference raises
for it. The rank decision is the kernel's own, so pate and sate studies
call the same designs singular.
"""

import json

import numpy as np
import pytest

from paired_adjust import randomization_engine as engine
from paired_adjust.cli import main
from paired_adjust.dgp import PotentialOutcomeSample, generate_sample
from paired_adjust.errors import (
    DimensionMismatch,
    NonFiniteTransform,
    RankDeficient,
)
from paired_adjust.estimators import (
    estimate_classical,
    estimate_r1,
    estimate_r2,
    superpop_correct,
)
from paired_adjust.experiment_model import TransformSpec, build_design, transformed_blocks
from paired_adjust.randomization_engine import (
    StudyConfig,
    _partialled_stats,
    _pate_kernel,
    _pate_rows,
    randomize,
    reveal,
    run_study,
)
from paired_adjust.rng import ROLE_ASSIGN, ROLE_SAMPLE, substream

T = TransformSpec
TRANSFORMS = [
    (T.identity(), T.identity()),
    (T.power(2), T.power(2)),
    (T.log(), T.log()),
    (T.select([1, 2]), T.select([3])),
]


def _draws(seed, n, count, setting="nonparallel"):
    samples = [
        generate_sample(n, setting, rng=substream(seed, ROLE_SAMPLE, i))
        for i in range(count)
    ]
    signs = np.array([randomize(n, substream(seed, ROLE_ASSIGN, i)) for i in range(count)])
    return samples, signs


def _pate_fit(sample, v, f, g):
    """Reference row: one table and its signs through the single-fit estimators."""
    exp, _ = reveal(sample, v)
    dm = build_design(exp, f, g)
    rep_c = estimate_classical(dm.y)
    rep_r1 = estimate_r1(dm)
    rep_r2 = estimate_r2(dm)
    rep_r2p = superpop_correct(rep_r2, dm)
    return {
        "tau_C": rep_c.tau_hat,
        "se_C": rep_c.se,
        "tau_R1": rep_r1.tau_hat,
        "se_R1": rep_r1.se,
        "tau_R2": rep_r2.tau_hat,
        "se_R2": rep_r2.se,
        "se_R2P": rep_r2p.se,
    }


def _pate_row(config, idx):
    """Reference row: index ``idx``'s own draws through the single fit."""
    sample = generate_sample(
        config.n, config.setting, rng=substream(config.seed, ROLE_SAMPLE, idx)
    )
    v = randomize(config.n, substream(config.seed, ROLE_ASSIGN, idx))
    return _pate_fit(sample, v, config.f, config.g)


def _stack(samples):
    """A list of samples as the (r_t, r_c, x) stacks the block routines take."""
    return tuple(np.stack([getattr(s, name) for s in samples]) for name in ("r_t", "r_c", "x"))


def _with_x(sample, x):
    return PotentialOutcomeSample(r_t=sample.r_t, r_c=sample.r_c, w=sample.w, x=x)


@pytest.mark.parametrize("f,g", TRANSFORMS, ids=lambda t: json.dumps(t.to_dict()))
def test_kernel_rows_match_single_fit(f, g):
    cfg = StudyConfig(mode="pate", setting="nonparallel", n=25, samples=120, seed=31, f=f, g=g)
    samples, signs = _draws(31, 25, 120)
    kernel = _pate_kernel(*_stack(samples), signs, f, g)
    assert len(kernel) == 120
    for j, row in enumerate(kernel):
        ref = _pate_row(cfg, j)
        assert row.keys() == ref.keys()
        for key, value in row.items():
            assert value == pytest.approx(ref[key], rel=1e-9, abs=0.0), (j, key)
    assert _pate_rows(cfg, range(120)) == kernel


@pytest.mark.parametrize(
    "f,g", [(T.identity(), T.identity()), (T.power(2), T.log())],
    ids=lambda t: json.dumps(t.to_dict()),
)
def test_stacked_grams_match_one_table_at_a_time(f, g):
    samples, _ = _draws(34, 20, 12)
    signs = randomize(20, substream(34, ROLE_ASSIGN), 12 * 5).reshape(12, 5, 20)
    d, m = transformed_blocks(np.stack([s.x for s in samples]), f, g)
    levels = np.stack([s.levels for s in samples])
    y = np.stack([s.effects for s in samples])[:, None] + signs * (
        levels[..., 0] - levels[..., 1]
    )[:, None]
    want = ("R1", "R2", "R2P")
    alone = [_partialled_stats(d[j : j + 1], m[j : j + 1], signs[j : j + 1], y[j : j + 1], want)
             for j in range(12)]
    for lo, hi in [(3, 4), (2, 9), (0, 12)]:
        stacked = _partialled_stats(d[lo:hi], m[lo:hi], signs[lo:hi], y[lo:hi], want)
        for j in range(lo, hi):
            for est in want:
                for part, ref in zip(stacked[est], alone[j][est]):
                    assert np.array_equal(part[j - lo], ref[0])


def test_rows_independent_of_block_size(monkeypatch):
    cfg = StudyConfig(mode="pate", setting="nonparallel", n=25, samples=40, seed=32,
                      f=T.power(2), g=T.power(2))
    whole = _pate_rows(cfg, range(40))
    ones = [row for i in range(40) for row in _pate_rows(cfg, [i])]
    sevens = [row for lo in range(0, 40, 7) for row in _pate_rows(cfg, range(lo, min(lo + 7, 40)))]
    assert repr(ones) == repr(whole) == repr(sevens)

    reports = []
    for size in (1, 7, 40):
        monkeypatch.setattr(engine, "_PATE_BLOCK", size)
        report = run_study(cfg)
        reports.append((json.dumps(report.to_json_dict(), sort_keys=True), report.to_csv()))
    assert reports[0] == reports[1] == reports[2]


# Under these transforms the m block is x4 alone, so scaling x4 leaves
# the equilibrated design as well conditioned as before.
F_CRAFT, G_CRAFT = T.select([1, 2]), T.select([4])


def _crafted_block():
    """Six tables: table 2 has a zero vd column, table 4 an m column
    too large to center to the absolute tolerance DesignMatrices checks."""
    samples, signs = _draws(33, 25, 6)
    x = np.array(samples[2].x)
    x[:, 1, 0] = x[:, 0, 0]  # equal units: d column 1 is all zero
    samples[2] = _with_x(samples[2], x)
    x = np.array(samples[4].x)
    x[..., 3] *= 5e5  # well conditioned still; only the centering check fails
    samples[4] = _with_x(samples[4], x)
    return samples, signs


def _single_path_error(samples, signs, f, g):
    for sample, v in zip(samples, signs):
        try:
            _pate_fit(sample, v, f, g)
        except Exception as exc:  # noqa: BLE001 - the class is what is compared
            return type(exc)
    return None


@pytest.mark.parametrize(
    "keep,expected",
    [((0, 1, 2, 3), RankDeficient), ((0, 1, 3, 4, 5), DimensionMismatch),
     ((4, 2), DimensionMismatch), ((2, 4), RankDeficient)],
)
def test_block_raises_what_single_path_raises(keep, expected):
    samples, signs = _crafted_block()
    samples = [samples[j] for j in keep]
    signs = signs[list(keep)]
    assert _single_path_error(samples, signs, F_CRAFT, G_CRAFT) is expected
    with pytest.raises(expected):
        _pate_kernel(*_stack(samples), signs, F_CRAFT, G_CRAFT)


def test_failing_transform_sends_block_one_table_at_a_time():
    samples, signs = _crafted_block()
    x = np.array(samples[5].x)
    x[0, 0, 0] = -1.0  # log of a negative covariate
    samples[5] = _with_x(samples[5], x)
    log = T.log()
    assert _single_path_error(samples, signs, log, log) is RankDeficient
    with pytest.raises(RankDeficient):
        _pate_kernel(*_stack(samples), signs, log, log)
    with pytest.raises(NonFiniteTransform):
        _pate_kernel(*_stack(samples[5:]), signs[5:], log, log)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "args,code,message",
    [
        # zero-width m block: refused before any sample is drawn
        (["--n", "25", "--g", "select:"], 4, "superpopulation correction needs"),
        # exp of the covariates: table 0 is full rank under the kernel's
        # scale-invariant test, table 1 fails the absolute centering tolerance
        (["--n", "25", "--f", "exp", "--g", "exp"], 2, "m columns must sum to zero"),
        (["--n", "200", "--f", "power:3", "--g", "power:3"], 2, "m columns must sum to zero"),
    ],
)
def test_failing_pate_studies_keep_error_and_exit_code(tmp_path, capsys, args, code, message):
    argv = ["simulate", "--mode", "pate-study", "--setting", "nonparallel", "--S", "50",
            "--seed", "3", "--workers", "1", "--out", str(tmp_path / "r.json")] + args
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"paired-adjust: error: {message}")
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["pate-study", "sate-study"])
def test_study_modes_make_the_same_rank_decision(tmp_path, capsys, mode):
    # A rank test that depends on column scale calls these pate designs singular.
    argv = ["simulate", "--mode", mode, "--setting", "nonparallel", "--n", "30",
            "--f", "power:3", "--g", "power:2", "--S", "20", "--seed", "3",
            "--workers", "1", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_pate_study_identical_across_worker_counts(tmp_path, capsys):
    outputs = []
    for workers in ("1", "2"):
        out, csv = tmp_path / f"w{workers}.json", tmp_path / f"w{workers}.csv"
        code = main(["simulate", "--mode", "pate-study", "--setting", "nonparallel",
                     "--n", "25", "--S", "300", "--seed", "36", "--workers", workers,
                     "--out", str(out), "--csv", str(csv)])
        assert code == 0
        outputs.append((out.read_bytes(), csv.read_bytes()))
    capsys.readouterr()
    assert outputs[0] == outputs[1]


def test_batched_randomize_matches_row_draws():
    a = randomize(13, substream(37, ROLE_ASSIGN), 9)
    rng = substream(37, ROLE_ASSIGN)
    assert a.shape == (9, 13)
    assert np.array_equal(a, 2.0 * rng.integers(0, 2, size=(9, 13)) - 1.0)
    assert randomize(0, substream(37, ROLE_ASSIGN), 4).shape == (4, 0)


def test_certified_study_builds_no_sample_objects(monkeypatch):
    built, streams = [], []
    post_init = PotentialOutcomeSample.__post_init__

    def counting_post_init(self):
        built.append(1)
        post_init(self)

    def counting_substream(*args):
        streams.append(args)
        return substream(*args)

    monkeypatch.setattr(PotentialOutcomeSample, "__post_init__", counting_post_init)
    monkeypatch.setattr(engine, "substream", counting_substream)
    cfg = StudyConfig(mode="pate", setting="nonparallel", n=25, samples=300, seed=38)
    run_study(cfg)
    assert built == []
    assert len(streams) == 2 * cfg.samples
    assert sorted(streams) == sorted(
        (38, role, i) for role in (ROLE_SAMPLE, ROLE_ASSIGN) for i in range(300)
    )
