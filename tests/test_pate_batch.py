"""Population-study columns through the shared kernel, in blocks of tables.

Every value of a block comes from the kernel. Each table's values must
match a reference row from the dense oracles of ``tests/oracles.py`` to
solver precision, must not depend on the block, slab or call size or the
worker count, and the first failing table of a block must raise what
the single-fit estimators raise for it. The rank decision is the kernel's own, so
pate and sate studies call the same designs singular.
"""

import contextlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from paired_adjust import kernel
from paired_adjust import randomization_engine as engine
from paired_adjust.cli import main
from paired_adjust.dgp import SETTINGS, PotentialOutcomeSample, generate_sample
from paired_adjust.errors import NonFiniteTransform, RankDeficient
from paired_adjust.estimators import (
    estimate_classical,
    estimate_r1,
    estimate_r2,
    superpop_correct,
)
from paired_adjust.experiment_model import TransformSpec, build_design, transformed_blocks
from paired_adjust.kernel import Whitened, sign_stats, times_of
from paired_adjust.randomization_engine import (
    StudyConfig,
    _study_block,
    randomize,
    reveal,
    run_study,
)
from paired_adjust.rng import ROLE_ASSIGN, ROLE_SAMPLE, substream, substreams

from conftest import record_sign_products, record_study_slabs
from oracles import r1_oracle, r2_oracle, superpop_oracle

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
    """Reference row: one table and its signs through the dense oracles.

    The design is the single-fit path's (``build_design``); the fits are
    the plain mean with its classical variance, ``r1_oracle``,
    ``r2_oracle`` and ``superpop_oracle``. The covariate blocks are
    scaled to a largest entry of 1 per column, which changes no intercept
    and no variance but keeps the oracles' explicit inverses accurate.
    """
    exp, y = reveal(sample, v)
    dm = build_design(exp, f, g)
    d, m = dm.d / np.abs(dm.d).max(axis=0), dm.m / np.abs(dm.m).max(axis=0)
    n = len(y)
    tau_c = y.mean()
    tau_r1, s2_r1 = r1_oracle(d, v, y)
    tau_r2, s2_r2, beta_m = r2_oracle(d, m, v, y)
    return {
        "tau_C": tau_c,
        "se_C": np.sqrt(((y - tau_c) ** 2).sum() / (n * (n - 1))),
        "tau_R1": tau_r1,
        "se_R1": np.sqrt(s2_r1),
        "tau_R2": tau_r2,
        "se_R2": np.sqrt(s2_r2),
        "se_R2P": np.sqrt(superpop_oracle(m, beta_m, s2_r2)),
    }


def _pate_row(config, idx):
    """Reference row: index ``idx``'s own draws through the oracles."""
    sample = generate_sample(
        config.n, config.setting, rng=substream(config.seed, ROLE_SAMPLE, idx)
    )
    v = randomize(config.n, substream(config.seed, ROLE_ASSIGN, idx))
    return _pate_fit(sample, v, config.f, config.g)


def _stack(samples):
    """A list of samples as the (r_t, r_c, x) stacks the block routines take."""
    return tuple(np.stack([getattr(s, name) for s in samples]) for name in ("r_t", "r_c", "x"))


def _columns(samples, signs, f, g):
    """The study slab path's columns for samples that meet one (n,) sign vector each.

    :func:`_study_block` takes the samples' stacked tables and their
    signs, read on in order, in place of its streams' draws. The samples
    form one slab, built once, or are built one table at a time when a
    transform is not finite on them; each build is one kernel call.
    """
    cfg = StudyConfig(mode="pate", setting="nonparallel", n=samples[0].n,
                      samples=len(samples), f=f, g=g)
    given = iter(signs)

    def given_signs(self, count):
        return np.stack([next(given) for _ in range(count)])[:, None]

    with mock.patch.object(engine, "stacked_tables", lambda normals, setting: (None, *_stack(samples))), \
            mock.patch.object(engine._StudyStreams, "signs", given_signs):
        return _study_block(cfg, range(len(samples)))


def _bits(columns):
    """Columns as bytes, so that NaN values compare equal."""
    return {name: col.tobytes() for name, col in columns.items()}


def _joined(parts):
    return {name: np.concatenate([p[name] for p in parts]) for name in parts[0]}


def _with_x(sample, x):
    return PotentialOutcomeSample(r_t=sample.r_t, r_c=sample.r_c, w=sample.w, x=x)


@pytest.mark.parametrize("f,g", TRANSFORMS, ids=lambda t: json.dumps(t.to_dict()))
def test_kernel_rows_match_single_fit(f, g):
    cfg = StudyConfig(mode="pate", setting="nonparallel", n=25, samples=120, seed=31, f=f, g=g)
    samples, signs = _draws(31, 25, 120)
    kernel = _columns(samples, signs, f, g)
    assert all(col.shape == (120,) for col in kernel.values())
    for j in range(120):
        ref = _pate_row(cfg, j)
        assert kernel.keys() == ref.keys()
        for key, col in kernel.items():
            assert col[j] == pytest.approx(ref[key], rel=1e-9, abs=0.0), (j, key)
    assert _bits(_study_block(cfg, range(120))) == _bits(kernel)


class _Built(Exception):
    """Raised in place of the kernel inputs' build, once its arguments are recorded."""


def _slab(cfg, count):
    """The (r_t, r_c, x) stacks that :func:`_study_block` builds for indices 0..count-1.

    They are recorded as it hands them to ``_kernel_inputs``, in the
    memory layout it gives them, and nothing of them is computed.
    """
    built = []

    def record(*args):
        built.append(args[:3])
        raise _Built

    with mock.patch.object(engine, "_kernel_inputs", record), pytest.raises(_Built):
        _study_block(cfg, range(count))
    return built[0]


@st.composite
def _transforms(draw):
    kind = draw(st.sampled_from(("identity", "select", "power", "log", "exp")))
    if kind == "select":  # zero to four columns, one-column blocks included
        return T.select(draw(st.lists(st.integers(1, 4), unique=True, max_size=4)))
    if kind == "power":
        return T.power(draw(st.integers(1, 3)))
    return T(kind)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from((1, 2, 7)), st.integers(12, 40), _transforms(), _transforms(),
       st.sampled_from(SETTINGS), st.integers(0, 2**32 - 1))
def test_slab_builds_each_table_bit_for_bit_as_alone(count, n, f, g, setting, seed):
    # The slab's stacks keep the study's memory layout; each table alone
    # is generate_sample's, C-ordered, as enumerate and Monte Carlo build it.
    cfg = StudyConfig(mode="pate", setting=setting, n=n, samples=count, seed=seed, f=f, g=g)
    try:
        blocks, effects, gaps = engine._kernel_inputs(*_slab(cfg, count), f, g)
    except NonFiniteTransform:
        reject()
    for j in range(count):
        sample = generate_sample(n, setting, rng=substream(seed, ROLE_SAMPLE, j))
        alone = engine._kernel_inputs(sample.r_t[None], sample.r_c[None], sample.x[None], f, g)
        slab = (blocks.dw[j], blocks.ok_d[j], blocks.w[j], blocks.ok_m[j], effects[j], gaps[j])
        one = (alone[0].dw[0], alone[0].ok_d[0], alone[0].w[0], alone[0].ok_m[0],
               alone[1][0], alone[2][0])
        assert [a.tobytes() for a in slab] == [a.tobytes() for a in one], (j, f, g)


def test_study_slab_keeps_the_table_axis_innermost():
    # Every elementwise step and every mean over pairs of the build runs
    # along all the slab's tables at once; the kernel reduces the effects
    # and gaps over C-ordered rows.
    ident = T.identity()
    cfg = StudyConfig(mode="pate", setting="nonparallel", n=25, samples=7, seed=3)
    r_t, r_c, x = _slab(cfg, 7)
    d, m = transformed_blocks(x, ident, ident)
    for name, a in (("r_t", r_t), ("r_c", r_c), ("x", x), ("d", d), ("m", m)):
        assert a.strides[0] == a.itemsize, (name, a.strides)
    tables = engine._kernel_inputs(r_t, r_c, x, ident, ident)
    assert all(a.flags.c_contiguous for a in tables[1:])


@pytest.mark.parametrize(
    "f,g", [(T.identity(), T.identity()), (T.power(2), T.log())],
    ids=lambda t: json.dumps(t.to_dict()),
)
def test_stacked_grams_match_one_table_at_a_time(f, g):
    samples, _ = _draws(34, 20, 12)
    signs = randomize(20, substream(34, ROLE_ASSIGN), 12 * 5).reshape(12, 5, 20)
    d, m = transformed_blocks(np.stack([s.x for s in samples]), f, g)
    levels = np.stack([s.levels for s in samples])
    effects, gaps = np.stack([s.effects for s in samples]), levels[..., 0] - levels[..., 1]
    want = ("C", "R1", "R2", "R2P")

    def grid(lo, hi):
        blocks = Whitened.of(d[lo:hi], m[lo:hi])
        return sign_stats(blocks, effects[lo:hi], gaps[lo:hi], times_of(signs[lo:hi]), 5, want)

    alone = [grid(j, j + 1) for j in range(12)]
    for lo, hi in [(3, 4), (2, 9), (0, 12)]:
        stacked = grid(lo, hi)
        for j in range(lo, hi):
            for est in want:
                for part, ref in zip(stacked[est], alone[j][est]):
                    assert np.array_equal(part[j - lo], ref[0])


def test_rows_independent_of_block_size(monkeypatch):
    cfg = StudyConfig(mode="pate", setting="nonparallel", n=25, samples=40, seed=32,
                      f=T.power(2), g=T.power(2))
    whole = _study_block(cfg, range(40))
    ones = _joined([_study_block(cfg, [i]) for i in range(40)])
    sevens = _joined([_study_block(cfg, range(lo, min(lo + 7, 40))) for lo in range(0, 40, 7)])
    assert _bits(ones) == _bits(whole) == _bits(sevens)

    # A pair cap of one table, of three or of all 40 cuts run_study's
    # indices into 40 slabs of one, 14 slabs of two or three, or one
    # slab. A grid budget of three draws cuts the slab of 40 into 13
    # kernel passes of 3 and one of 1. Each table has one draw, so every
    # chunk the kernel gets is one draw wide, and the widest pass holds
    # as many tables as the budget and the slab allow.
    seen = record_sign_products(monkeypatch)
    slabs = record_study_slabs(monkeypatch)
    reports = []
    for pairs, count in ((25, 40), (3 * 25, 14), (10**6, 1)):
        monkeypatch.setattr(engine, "_STUDY_PAIRS", pairs)
        for draws in (1, 2, 3, 7, 40):
            monkeypatch.setattr(kernel, "CHUNK", draws)
            assert _bits(_study_block(cfg, range(40))) == _bits(whole)
            seen.clear()
            slabs.clear()
            report = run_study(cfg)
            assert [i for idxs, _ in slabs for i in idxs] == list(range(40))
            assert len(slabs) == count
            assert max(len(idxs) for idxs, _ in slabs) == min(pairs // 25, 40)
            assert _bits(_joined([columns for _, columns in slabs])) == _bits(whole)
            assert {width for _, width in seen} == {1}
            assert sum(len(tables) for tables, _ in seen) == 40
            assert max(len(tables) for tables, _ in seen) == min(draws, pairs // 25, 40)
            reports.append((json.dumps(report.to_json_dict(), sort_keys=True), report.to_csv()))
    assert all(report == reports[0] for report in reports)


# Under these transforms the m block is x4 alone, so scaling x4 leaves
# the equilibrated design as well conditioned as before.
F_CRAFT, G_CRAFT = T.select([1, 2]), T.select([4])


def _crafted_block():
    """Six tables: table 2 has a zero vd column, table 4 an m column
    5e5 times the others, which a centering tolerance blind to scale
    would refuse and both paths fit."""
    samples, signs = _draws(33, 25, 6)
    x = np.array(samples[2].x)
    x[:, 1, 0] = x[:, 0, 0]  # equal units: d column 1 is all zero
    samples[2] = _with_x(samples[2], x)
    x = np.array(samples[4].x)
    x[..., 3] *= 5e5  # well conditioned still
    samples[4] = _with_x(samples[4], x)
    return samples, signs


def _single_path_error(samples, signs, f, g):
    """The class of the first error the single-fit estimators raise over the tables, or None."""
    for sample, v in zip(samples, signs):
        try:
            dm = build_design(reveal(sample, v)[0], f, g)
            estimate_classical(dm.y)
            estimate_r1(dm)
            superpop_correct(estimate_r2(dm), dm)
        except Exception as exc:  # noqa: BLE001 - the class is what is compared
            return type(exc)
    return None


@pytest.mark.parametrize(
    "keep,expected",
    [((0, 1, 2, 3), RankDeficient), ((0, 1, 3, 4, 5), None),
     ((4, 2), RankDeficient), ((2, 4), RankDeficient)],
)
def test_block_raises_what_single_path_raises(keep, expected):
    samples, signs = _crafted_block()
    samples = [samples[j] for j in keep]
    signs = signs[list(keep)]
    assert _single_path_error(samples, signs, F_CRAFT, G_CRAFT) is expected
    with pytest.raises(expected) if expected else contextlib.nullcontext():
        columns = _columns(samples, signs, F_CRAFT, G_CRAFT)
        assert all(np.isfinite(col).all() for col in columns.values())


def test_failing_transform_sends_block_one_table_at_a_time():
    samples, signs = _crafted_block()
    x = np.array(samples[5].x)
    x[0, 0, 0] = -1.0  # log of a negative covariate
    samples[5] = _with_x(samples[5], x)
    log = T.log()
    assert _single_path_error(samples, signs, log, log) is RankDeficient
    with pytest.raises(RankDeficient):
        _columns(samples, signs, log, log)
    with pytest.raises(NonFiniteTransform):
        _columns(samples[5:], signs[5:], log, log)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "args,code,message",
    [
        # zero-width m block: refused before any sample is drawn
        (["--n", "25", "--g", "select:"], 4, "superpopulation correction needs"),
        # exp of the covariates: table 0 is full rank under the kernel's
        # scale-invariant test, table 1 is not; at n = 100 table 0 is not
        (["--n", "25", "--f", "exp", "--g", "exp"], 3,
         "sample 1: the regression design is rank deficient"),
        (["--n", "100", "--f", "exp", "--g", "exp"], 3,
         "sample 0: the regression design is rank deficient"),
        # one sample (the later --S wins): every se/sd and sd ratio divides
        # by a standard deviation across samples
        (["--n", "25", "--S", "1"], 4, "pate mode needs samples >= 2, got 1: its metrics "
         "divide by the standard deviation"),
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
    # A rank test that depends on column scale calls the first config's
    # pate designs singular, and a centering test that does (|sum m| at
    # most 1e-10 n) refuses most of the second's m blocks.
    for design in (["--n", "30", "--f", "power:3", "--g", "power:2", "--S", "20"],
                   ["--n", "200", "--f", "power:3", "--g", "power:3", "--S", "50"]):
        argv = ["simulate", "--mode", mode, "--setting", "nonparallel", *design, "--seed", "3",
                "--workers", "1", "--out", str(tmp_path / "r.json")]
        assert main(argv) == 0, design
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

    def counting_substreams(seed, role, idxs):
        for i, rng in zip(idxs, substreams(seed, role, idxs)):
            streams.append((seed, role, i))
            yield rng

    def no_randomize(*args, **kwargs):
        raise AssertionError("a pate study called randomize")

    monkeypatch.setattr(PotentialOutcomeSample, "__post_init__", counting_post_init)
    monkeypatch.setattr(engine, "substreams", counting_substreams)
    monkeypatch.setattr(engine, "randomize", no_randomize)
    cfg = StudyConfig(mode="pate", setting="nonparallel", n=25, samples=300, seed=38)
    run_study(cfg)
    assert built == []
    assert len(streams) == 2 * cfg.samples
    assert sorted(streams) == sorted(
        (38, role, i) for role in (ROLE_SAMPLE, ROLE_ASSIGN) for i in range(300)
    )
