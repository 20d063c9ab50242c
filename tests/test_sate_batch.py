"""In-sample study columns from stacked tables, several tables per slab.

Each table's values must match the row of the per-sample reference
below, which fits every draw of the table with the dense oracles of
``tests/oracles.py`` and summarizes them one at a time. Values must not
depend, bit for bit, on the slab they are computed in, on the number of
tables per slab or per kernel pass or on the worker count, and must
equal, bit for bit, what ``run_monte_carlo`` makes of the same table and
assignment streams. A sate study must build no per-sample object.
"""

import json

import numpy as np
import pytest

from paired_adjust import kernel
from paired_adjust import randomization_engine as engine
from paired_adjust.cli import main
from paired_adjust.dgp import PotentialOutcomeSample, generate_sample
from paired_adjust.errors import NonFiniteTransform
from paired_adjust.experiment_model import TransformSpec, transformed_blocks
from paired_adjust.randomization_engine import StudyConfig, _study_block, randomize, run_study
from paired_adjust.rng import ROLE_ASSIGN, ROLE_SAMPLE, substream, substreams

from conftest import record_sign_products, record_study_slabs
from oracles import coverage_oracle, r1_oracle, r2_oracle, singular_oracle

T = TransformSpec
# Relative tolerance of a study column against the oracle row. The
# oracles solve the normal equations by explicit inverses, so they lose
# digits as the square of the design's condition number: 1e-9 holds
# with room to spare for well-conditioned designs (the worst measured
# is 3e-11), while the nearly singular exp/exp draws kept below lose
# more (worst measured 4e-5).
RTOL = 1e-9
RTOL_NEAR_SINGULAR = 1e-3


def _oracle_fits(d, m, v, y):
    """{id: (tau, s2)} of one draw by the oracles, NaN where the pivot rule calls the design singular."""
    n = len(y)
    tau = y.mean()
    fits = {"C": (tau, ((y - tau) ** 2).sum() / (n * (n - 1)))}
    fits["R1"] = (np.nan, np.nan) if singular_oracle(d, m[:, :0], v) else r1_oracle(d, v, y)
    fits["R2"] = (np.nan, np.nan) if singular_oracle(d, m, v) else r2_oracle(d, m, v, y)[:2]
    return fits


def _sate_row(config, idx):
    """Reference row: index ``idx``'s table and draws, each draw fitted by the oracles.

    The covariate blocks are scaled to a largest entry of 1 per column,
    which changes no intercept and no variance but keeps the oracles'
    Grams from overflowing under exp. Singular draws are left out of
    every summary; a table with none left gets NaN.
    """
    sample = generate_sample(config.n, config.setting, rng=substream(config.seed, ROLE_SAMPLE, idx))
    signs = randomize(config.n, substream(config.seed, ROLE_ASSIGN, idx), config.randomizations)
    d, m = transformed_blocks(sample.x, config.f, config.g)
    d, m = d / np.abs(d).max(axis=0), m / np.abs(m).max(axis=0)
    r_t, r_c = sample.r_t, sample.r_c
    draws = []
    for v in signs:
        y = np.where(v > 0, r_t[:, 0] - r_c[:, 1], r_t[:, 1] - r_c[:, 0])
        draws.append(_oracle_fits(d, m, v, y))
    se, rmse, coverage = {}, {}, {}
    for est in ("C", "R1", "R2"):
        tau, s2 = np.array([draw[est] for draw in draws]).T
        kept = np.isfinite(tau)
        tau, s2 = tau[kept], s2[kept]
        se[est] = np.sqrt(s2).mean() if kept.any() else np.nan
        rmse[est] = np.sqrt(((tau - sample.sate) ** 2).mean()) if kept.any() else np.nan
        coverage[est] = coverage_oracle(tau, s2, sample.sate, config.alpha) if kept.any() else np.nan
    return {
        "coverage_C": coverage["C"],
        "coverage_R1": coverage["R1"],
        "coverage_R2": coverage["R2"],
        "se_ratio_R1_C": se["R1"] / se["C"],
        "se_ratio_R2_C": se["R2"] / se["C"],
        "se_ratio_R2_R1": se["R2"] / se["R1"],
        "rmse_ratio_R1_C": rmse["R1"] / rmse["C"],
        "rmse_ratio_R2_C": rmse["R2"] / rmse["C"],
    }


def _assert_matches_reference(columns, cfg, rtol):
    """Every study column within ``rtol`` of the oracle rows, NaN where they are NaN."""
    for idx in range(cfg.samples):
        for name, want in _sate_row(cfg, idx).items():
            got = columns[name][idx]
            assert np.isnan(got) == np.isnan(want), (idx, name, got, want)
            if not np.isnan(want):
                assert got == pytest.approx(want, rel=rtol, abs=0.0), (idx, name)


def _bits(columns):
    """Columns as bytes: every bit is compared and NaN values compare equal."""
    return {name: np.asarray(col, dtype=float).tobytes() for name, col in columns.items()}


def _joined(parts):
    return {name: np.concatenate([p[name] for p in parts]) for name in parts[0]}


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
    _assert_matches_reference(_study_block(cfg, range(cfg.samples)), cfg, RTOL)


@pytest.mark.parametrize(
    "n,b,f,g",
    [(25, 21, T.identity(), T.identity()),  # odd B * n
     (40, 50, T.power(2), T.log()),
     (12, 5000, T.identity(), T.identity())],  # B above the kernel's grid budget
    ids=["n25-B21", "n40-B50-pow2-log", "n12-B5000"],
)
def test_rows_equal_run_monte_carlo_on_the_same_streams(n, b, f, g):
    # Both modes draw a sample's signs with the one decoder, through the
    # one kernel, so a study row is bit for bit its Monte Carlo summary.
    cfg = _config(f, g, n=n, samples=6, randomizations=b, seed=29)
    columns = _study_block(cfg, range(cfg.samples))
    for i in range(cfg.samples):
        sample = generate_sample(n, cfg.setting, rng=substream(cfg.seed, ROLE_SAMPLE, i))
        mc = engine.run_monte_carlo(sample, b, alpha=cfg.alpha, f=f, g=g,
                                    rng=substream(cfg.seed, ROLE_ASSIGN, i))
        c, r1, r2 = mc.per["C"], mc.per["R1"], mc.per["R2"]
        want = {
            "coverage_C": c.coverage,
            "coverage_R1": r1.coverage,
            "coverage_R2": r2.coverage,
            "se_ratio_R1_C": r1.mean_se / c.mean_se,
            "se_ratio_R2_C": r2.mean_se / c.mean_se,
            "se_ratio_R2_R1": r2.mean_se / r1.mean_se,
            "rmse_ratio_R1_C": r1.rmse / c.rmse,
            "rmse_ratio_R2_C": r2.rmse / c.rmse,
        }
        assert set(columns) == set(want)
        for name, value in want.items():
            assert np.float64(columns[name][i]).tobytes() == np.float64(value).tobytes(), (i, name)


def test_singular_draws_match_per_sample_reference():
    # exp/exp at n=25: many tables have every R2 draw singular, so their
    # R2 metrics are NaN in both paths, and others some of them.
    cfg = _config(T.exp(), T.exp(), n=25, samples=12, randomizations=20, seed=3)
    columns = _study_block(cfg, range(cfg.samples))
    assert np.isnan(columns["coverage_R2"]).any()
    assert not np.isnan(columns["coverage_R2"]).all()
    _assert_matches_reference(columns, cfg, RTOL_NEAR_SINGULAR)


def test_rows_independent_of_block_slab_and_pass_size(monkeypatch):
    cfg = _config(T.power(2), T.log(), samples=20, randomizations=30)
    whole = _study_block(cfg, range(20))
    ones = _joined([_study_block(cfg, [i]) for i in range(20)])
    sevens = _joined([_study_block(cfg, range(lo, min(lo + 7, 20))) for lo in range(0, 20, 7)])
    assert _bits(ones) == _bits(whole) == _bits(sevens)

    # A pair cap of one table, of three or of all 20 cuts run_study's
    # indices into 20 slabs of one, 7 slabs of two or three, or one slab.
    # A grid budget of B + 1 draws gives one table per kernel pass, 3B
    # three and 10^6 all of them. A budget of 7 or B - 1 gives one table
    # per pass too, whose draws sign_stats cuts into parts of 7 and 2,
    # or of 29 and 1. BLAS may round a sign product differently in a
    # narrower part, so there the rows are those of one table per slab
    # under the same budget. Every pass's draws reach the kernel in parts
    # of the budget's widths.
    seen = record_sign_products(monkeypatch)
    slabs = record_study_slabs(monkeypatch)
    reports, rows = {}, {}
    for pairs, count in ((30, 20), (3 * 30, 7), (10**6, 1)):
        monkeypatch.setattr(engine, "_STUDY_PAIRS", pairs)
        for draws in (7, 30 - 1, 30 + 1, 3 * 30, 10**6):
            monkeypatch.setattr(kernel, "CHUNK", draws)
            if draws not in rows:
                rows[draws] = _bits(_joined([_study_block(cfg, [i]) for i in range(20)]))
                assert _bits(_study_block(cfg, range(20))) == rows[draws]
            seen.clear()
            slabs.clear()
            report = run_study(cfg)
            assert [i for idxs, _ in slabs for i in idxs] == list(range(20))
            assert len(slabs) == count
            assert max(len(idxs) for idxs, _ in slabs) == min(pairs // 30, 20)
            assert _bits(_joined([columns for _, columns in slabs])) == rows[draws]
            widths = [min(draws, 30 - lo) for lo in range(0, 30, draws)]
            assert [width for _, width in seen] == widths * (len(seen) // len(widths))
            assert sum(len(tables) for tables, _ in seen) == 20 * len(widths)
            assert max(len(tables) for tables, _ in seen) == min(max(1, draws // 30), pairs // 30, 20)
            text = (json.dumps(report.to_json_dict(), sort_keys=True), report.to_csv())
            reports.setdefault(min(draws, 31), set()).add(text)
    assert all(len(seen) == 1 for seen in reports.values())


def test_sate_study_builds_no_sample_objects(monkeypatch):
    built, streams = [], []
    post_init = PotentialOutcomeSample.__post_init__

    def counting_post_init(self):
        built.append(1)
        post_init(self)

    def counting_substreams(seed, role, idxs):
        for i, rng in zip(idxs, substreams(seed, role, idxs)):
            streams.append((seed, role, i))
            yield rng

    def no_monte_carlo(*args, **kwargs):
        raise AssertionError("a sate study called run_monte_carlo")

    def no_randomize(*args, **kwargs):
        raise AssertionError("a sate study called randomize")

    monkeypatch.setattr(PotentialOutcomeSample, "__post_init__", counting_post_init)
    monkeypatch.setattr(engine, "substreams", counting_substreams)
    monkeypatch.setattr(engine, "run_monte_carlo", no_monte_carlo)
    monkeypatch.setattr(engine, "randomize", no_randomize)
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
    stacked_tables = engine.stacked_tables
    block = []

    def crafted(normals, setting):
        w, r_t, r_c, x = stacked_tables(normals, setting)
        for j, idx in enumerate(block):
            if idx == 1:
                x[j, 0, 0, 0] = -1.0
            if idx == 2:
                x[j, 0, 0, 1] = 1e3
        return w, r_t, r_c, x

    monkeypatch.setattr(engine, "stacked_tables", crafted)
    cfg = _config(T.exp(), T.log(), samples=4)
    messages = []
    for idxs in ([1], [2], range(4)):
        block[:] = idxs
        with pytest.raises(NonFiniteTransform) as info:
            _study_block(cfg, idxs)
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
