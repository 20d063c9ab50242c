"""Study fan-out: one cut of the sample indices into slabs, on a pool of threads.

Reports must not depend on the worker count, whatever the slab sizes;
a failing study must raise what one worker raises, for the first
failing sample in index order, whichever slab holds it; the slabs not
started when one fails are cancelled; and ``--workers k`` must run the
study on min(k, slabs) threads and no process, all ended when
:func:`run_study` returns or raises. Each slab's one kernel call is cut
into passes by ``kernel.sign_stats``, which the tests here read through
the ``times`` products it asks for.
"""

import concurrent.futures
import multiprocessing
import threading
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paired_adjust import kernel
from paired_adjust import randomization_engine as engine
from paired_adjust.cli import main
from paired_adjust.errors import RankDeficient
from paired_adjust.experiment_model import TransformSpec as T
from paired_adjust.kernel import Whitened, sign_stats, times_of
from paired_adjust.randomization_engine import StudyConfig, _split, run_study

# (mode, S): S a multiple of 2 and 3, a multiple of neither, and below
# the largest worker count (one slab and one thread at any worker count
# for sate, two of each at 2 and 3 workers for pate).
SIZES = [("sate", 12), ("pate", 12), ("sate", 7), ("pate", 11), ("sate", 1), ("pate", 2)]


def _argv(mode, samples, workers, out, csv):
    extra = ["--B", "10"] if mode == "sate" else []
    return ["simulate", "--mode", f"{mode}-study", "--setting", "nonparallel", "--n", "25",
            "--S", str(samples), "--seed", "12", "--f", "power:2", "--g", "log",
            "--workers", str(workers), "--out", str(out), "--csv", str(csv), *extra]


@pytest.mark.parametrize("mode,samples", SIZES, ids=lambda v: str(v))
def test_reports_identical_across_one_two_and_three_workers(tmp_path, capsys, mode, samples):
    outputs = []
    for workers in (1, 2, 3):
        out, csv = tmp_path / f"w{workers}.json", tmp_path / f"w{workers}.csv"
        before = set(threading.enumerate())
        assert main(_argv(mode, samples, workers, out, csv)) == 0
        outputs.append((out.read_bytes(), csv.read_bytes()))
        assert set(threading.enumerate()) <= before
    assert capsys.readouterr().err == ""
    assert outputs[0] == outputs[1] == outputs[2]


def test_shares_are_contiguous_and_near_equal():
    for count in range(1, 30):
        for parts in range(1, count + 1):
            shares = _split(count, parts)
            assert [i for share in shares for i in share] == list(range(count))
            assert max(map(len, shares)) - min(map(len, shares)) <= 1


def _pass_sizes(tables, b):
    """Tables per pass when :func:`sign_stats` takes ``tables`` tables of ``b`` draws each.

    The tables have no covariates and only the mean is fitted, and the
    recording ``times`` gives zero products, so any size runs at once.
    """
    sizes = []

    def times(columns, rows, part, out):
        if part.start == 0:
            sizes.append(len(columns))
        out.fill(0.0)

    zeros = np.zeros((tables, 3))
    blocks = Whitened.of(np.empty((tables, 3, 0)), np.empty((tables, 3, 0)))
    sign_stats(blocks, zeros, zeros, times, b, ("C",))
    return sizes


def _cut(config):
    """The slabs :func:`run_study` cuts ``config``'s indices into, in the order it joins them.

    The slabs are stand-ins that only carry their indices, so any size
    runs at once.
    """
    joined = []
    concat = engine._concat

    def block(config, idxs):
        return {"rows": np.asarray(idxs)}

    def recording(parts):
        joined[:] = [list(part["rows"]) for part in parts]
        return concat(parts)

    with mock.patch.multiple(engine, _study_block=block, _concat=recording,
                             _validate_config=lambda config: config):
        run_study(config)
    return joined


def _study_pass_size(b, tables, n):
    """Largest slab, and its first pass size, of a one-worker sate study.

    The study has ``tables`` tables of ``n`` pairs and ``b`` draws each.
    """
    cfg = StudyConfig(mode="sate", setting="nonparallel", n=n, samples=tables, randomizations=b)
    slab = max(map(len, _cut(cfg)))
    return slab, _pass_sizes(slab, b)[0]


# run_study cuts a study into slabs, and sign_stats each slab's one
# kernel call into passes. First pass sizes at a grid budget of 800
# draws and at the kernel's own, kernel.CHUNK = 4096, where a slab of
# 50 tables at B = 200 is cut into passes of 17, 17 and 16 tables.
@pytest.mark.parametrize(
    "b,tables,size",
    [(200, 100, 4), (200, 10, 4), (200, 1, 1), (1000, 3, 1), (1, 2000, 250), (1, 1000, 250),
     (1, 256, 256), (1, 257, 129), (40, 10, 10), (80, 10, 10), (100, 10, 5)],
)
def test_kernel_calls_stay_within_draw_and_table_caps(monkeypatch, b, tables, size):
    monkeypatch.setattr(kernel, "CHUNK", 800)
    assert _study_pass_size(b, tables, 25)[1] == size


@pytest.mark.parametrize(
    "b,tables,size",
    [(200, 100, 20), (200, 10, 10), (200, 1, 1), (1000, 3, 3), (1000, 10, 4), (4096, 3, 1),
     (4097, 3, 1), (5000, 2, 1), (4095, 2, 1), (2048, 5, 2), (1, 2000, 250), (1, 257, 129),
     (100, 100, 34)],
)
def test_kernel_calls_take_the_grid_budget(b, tables, size):
    assert _study_pass_size(b, tables, 25)[1] == size


# At n = 100 a slab holds at most 64 tables, so a study is cut into
# slabs first and each slab into kernel passes.
@pytest.mark.parametrize(
    "b,tables,slab,size",
    [(200, 100, 50, 4), (200, 64, 64, 4), (200, 65, 33, 4), (200, 1, 1, 1),
     (1, 2000, 63, 63), (1, 64, 64, 64), (1, 65, 33, 33), (100, 200, 50, 8)],
)
def test_slabs_stay_within_pair_cap(monkeypatch, b, tables, slab, size):
    monkeypatch.setattr(kernel, "CHUNK", 800)
    assert _study_pass_size(b, tables, 100) == (slab, size)


@pytest.mark.parametrize(
    "b,tables,slab,size",
    [(200, 100, 50, 17), (200, 200, 50, 17), (200, 64, 64, 16), (200, 65, 33, 17),
     (200, 1, 1, 1), (1, 2000, 63, 63), (100, 200, 50, 25), (5000, 100, 50, 1)],
)
def test_slab_calls_take_the_grid_budget(b, tables, slab, size):
    assert _study_pass_size(b, tables, 100) == (slab, size)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 400), samples=st.integers(1, 500), pairs=st.integers(1, 20000),
       workers=st.integers(1, 4))
def test_slabs_cover_the_share_in_order_within_the_pair_cap(n, samples, pairs, workers):
    # One cut of the whole study: contiguous slabs joined in index
    # order, each within the pair cap, sizes within one of each other,
    # and the fewest whose count is a multiple of min(workers, S), or S
    # slabs of one table when that multiple would exceed S.
    cfg = StudyConfig(mode="sate", setting="nonparallel", n=n, samples=samples, workers=workers)
    with mock.patch.object(engine, "_STUDY_PAIRS", pairs):
        slabs = _cut(cfg)
    assert [i for slab in slabs for i in slab] == list(range(samples))
    sizes = [len(slab) for slab in slabs]
    most, k = max(1, pairs // n), min(workers, samples)
    assert max(sizes) <= most and max(sizes) - min(sizes) <= 1
    assert len(sizes) % k == 0 or len(sizes) == samples
    fewer = (len(sizes) - 1) // k * k  # the next smaller multiple of k
    assert fewer == 0 or -(-samples // fewer) > most


@st.composite
def _grids(draw):
    """(blocks, effects, gaps, signs) of a random grid of T small tables by B draws."""
    t, n, b = draw(st.integers(1, 12)), draw(st.integers(4, 7)), draw(st.integers(1, 90))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, m = rng.standard_normal((2, t, n, 1))
    signs = 2.0 * rng.integers(0, 2, size=(t, b, n)) - 1.0
    effects, gaps = rng.standard_normal((2, t, n))
    return Whitened.of(d, m), effects, gaps, signs


@settings(max_examples=100, deadline=None, derandomize=True)
@given(grid=_grids(), chunk=st.integers(1, 40))
def test_every_pass_holds_tables_of_its_slab_within_the_grid_budget(grid, chunk):
    # sign_stats cuts a slab's T tables by B draws into passes of whole
    # tables, read here through a recording Times: the fewest passes of
    # at most CHUNK draws (one table at least), all but the last of the
    # smallest size that count of passes can have, each table's draws
    # cut at multiples of CHUNK, and every value bit for bit what the
    # table gets alone. Every part's products go into one buffer of the
    # call, which holds the outputs too.
    blocks, effects, gaps, signs = grid
    t, b, _ = signs.shape
    want = ("C", "R1", "R2", "R2P")
    passes = []
    buffers = []

    def recording(columns, rows, part, out):
        if part.start == 0:
            passes.append((range(rows.start, rows.stop), []))
        passes[-1][1].append(range(part.start, part.stop))
        assert len(columns) == len(passes[-1][0])
        assert out.shape == columns.shape[:2] + (len(passes[-1][1][-1]),)
        assert out.flags.c_contiguous and out.base is not None
        buffers.append(out.base)
        times_of(signs)(columns, rows, part, out)

    with mock.patch.object(kernel, "CHUNK", chunk):
        stacked = sign_stats(blocks, effects, gaps, recording, b, want)
        alone = [
            sign_stats(blocks[j : j + 1], effects[j : j + 1], gaps[j : j + 1],
                       times_of(signs[j : j + 1]), b, want)
            for j in range(t)
        ]
    assert [j for rows, _ in passes for j in rows] == list(range(t))
    sizes = [len(rows) for rows, _ in passes]
    assert all(size * b <= max(chunk, b) for size in sizes)
    assert len(sizes) == -(-t // max(1, chunk // b))
    assert set(sizes[:-1]) <= {sizes[0]} and 1 <= sizes[-1] <= sizes[0]
    assert sizes[0] == -(-t // len(sizes))
    cuts = [range(lo, min(lo + chunk, b)) for lo in range(0, b, chunk)]
    assert all(parts == cuts for _, parts in passes)
    assert all(base is buffers[0] for base in buffers)
    for est in want:
        assert all(array.base is buffers[0] for array in stacked[est])
        for whole, ones in zip(stacked[est], zip(*(one[est] for one in alone))):
            assert whole.tobytes() == np.concatenate(ones).tobytes(), est


_WANTS = [("C",), ("R1",), ("R2",), ("R2P",), ("C", "R1"), ("R2P", "R2"), ("C", "R1", "R2", "R2P")]


@pytest.mark.parametrize("want", _WANTS, ids="+".join)
def test_workspace_is_sized_for_the_largest_pass(want):
    # The one buffer of a kernel call holds its outputs and its largest
    # pass, and no more than that but for a bool array's unused
    # seven-eighths (at most three bool grids live at once).
    peaks = []

    class Recording(kernel._Workspace):
        def __init__(self, size):
            super().__init__(size)
            self.peak = 0
            peaks.append(self)

        def take(self, shape, dtype=float):
            array = super().take(shape, dtype)
            self.peak = max(self.peak, self.mark)
            return array

    rng = np.random.default_rng(8)
    t, b, n = 5, 30, 12
    for kd in range(1, 4):
        for km in range(1 if "R2P" in want else 0, 4):
            d, m = rng.standard_normal((t, n, kd)), rng.standard_normal((t, n, km))
            signs = 2.0 * rng.integers(0, 2, size=(t, b, n)) - 1.0
            effects, gaps = rng.standard_normal((2, t, n))
            with mock.patch.object(kernel, "_Workspace", Recording), \
                    mock.patch.object(kernel, "CHUNK", 70):
                sign_stats(Whitened.of(d, m), effects, gaps, times_of(signs), b, want)
            ws = peaks.pop()
            grid = 2 * b  # the first pass holds two tables
            assert 0 <= len(ws._buf) - ws.peak <= 3 * grid * 7 // 8, (kd, km)


# At --n 25 under exp/exp, seed 23 gives RankDeficient for samples 0-3;
# seed 86 passes samples 0 and 3 and gives RankDeficient for samples 1
# and 2. The first failing sample lies in the first slab at S=4 with two
# workers (and for seed 23 with three), and in the second slab at S=3
# with two or three workers (and for seed 86 at S=4 with three); a later
# sample fails too each time, with another sample in its message.
@pytest.mark.parametrize(
    "seed,samples,sample",
    [(23, 4, 0), (86, 4, 1), (86, 3, 1)],
)
def test_failing_study_raises_what_one_worker_raises(seed, samples, sample):
    raised = []
    for workers in (1, 2, 3):
        cfg = StudyConfig(mode="pate", setting="nonparallel", n=25, samples=samples,
                          seed=seed, f=T.exp(), g=T.exp(), workers=workers)
        before = set(threading.enumerate())
        with pytest.raises(RankDeficient) as info:
            run_study(cfg)
        assert set(threading.enumerate()) <= before
        raised.append((type(info.value), str(info.value)))
    assert raised[0][1].startswith(f"sample {sample}: ")
    assert raised[0] == raised[1] == raised[2]


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_failing_study_keeps_exit_code_across_workers(tmp_path, capsys, workers):
    argv = ["simulate", "--mode", "pate-study", "--setting", "nonparallel", "--n", "25",
            "--f", "exp", "--g", "exp", "--S", "50", "--seed", "3", "--workers", workers,
            "--out", str(tmp_path / "r.json")]
    before = set(threading.enumerate())
    assert main(argv) == RankDeficient.exit_code
    err = capsys.readouterr().err
    assert err == "paired-adjust: error: sample 1: the regression design is rank deficient\n"
    assert set(threading.enumerate()) <= before


# (workers, S, threads): one slab per thread at S = 6 (two slabs of
# three tables at two workers, three of two at three), and no more
# threads than samples.
@pytest.mark.parametrize("workers,samples,threads", [(1, 6, 1), (2, 6, 2), (3, 6, 3),
                                                     (3, 2, 2), (2, 1, 1)])
def test_workers_k_start_min_k_and_slabs_threads(monkeypatch, workers, samples, threads):
    pools, ran = [], set()
    meet = threading.Barrier(threads)
    block = engine._study_block

    class Counting(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            pools.append(max_workers)

    def meeting(config, idxs):
        # Every thread's first slab waits for the others, so the study
        # fails with BrokenBarrierError unless `threads` threads run.
        if threading.current_thread() not in ran:
            ran.add(threading.current_thread())
            meet.wait(timeout=10)
        return block(config, idxs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counting)
    monkeypatch.setattr(engine, "_study_block", meeting)
    cfg = StudyConfig(mode="sate", setting="nonparallel", n=16, samples=samples,
                      randomizations=5, seed=4, workers=workers)
    before = set(threading.enumerate())
    run_study(cfg)
    assert pools == [threads]
    assert len(ran) == threads and not ran & before
    assert not any(thread.is_alive() for thread in ran)


def test_study_starts_no_process():
    cfg = StudyConfig(mode="pate", setting="nonparallel", n=25, samples=60, seed=5, workers=3)
    with mock.patch.object(multiprocessing.Process, "start",
                           side_effect=AssertionError("a study started a process")):
        report = run_study(cfg)
    assert report.to_json_dict() == run_study(replace(cfg, workers=1)).to_json_dict()


SLABS = 200


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_slab_cancels_slabs_not_started(monkeypatch, workers):
    # One table per slab. Slab 0 fails at once; the others compute.
    started = []
    sate_columns = engine._sate_columns

    def failing(config, idxs, *tables):
        started.append(idxs[0])
        if idxs[0] == 0:
            raise RankDeficient("slab 0 failed")
        return sate_columns(config, idxs, *tables)

    monkeypatch.setattr(engine, "_sate_columns", failing)
    monkeypatch.setattr(engine, "_STUDY_PAIRS", 20)
    cfg = StudyConfig(mode="sate", setting="nonparallel", n=20, samples=SLABS,
                      randomizations=20, seed=6, workers=workers)
    before = set(threading.enumerate())
    with pytest.raises(RankDeficient, match="^slab 0 failed$"):
        run_study(cfg)
    assert set(threading.enumerate()) <= before
    assert started[0] == 0 or workers > 1
    assert 0 in started and len(started) < SLABS
