"""Study fan-out: one contiguous share per worker, the caller computing the first.

Reports must not depend on the worker count, whatever the share sizes;
a failing study must raise what one worker raises, for the first
failing sample in index order, whichever share holds it; and
``--workers k`` must start k - 1 processes, all ended when
:func:`run_study` returns or raises.
"""

import concurrent.futures
import multiprocessing
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paired_adjust import kernel
from paired_adjust import randomization_engine as engine
from paired_adjust.cli import main
from paired_adjust.errors import DimensionMismatch, RankDeficient
from paired_adjust.experiment_model import TransformSpec as T
from paired_adjust.randomization_engine import (
    StudyConfig,
    _call_size,
    _slab_size,
    _split,
    _study_block,
    run_study,
)

# (mode, S): S a multiple of 2 and 3, not a multiple of either, and
# below the largest worker count (one share at 2 and 3 workers for
# sate, two shares at 3 workers for pate).
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
        assert main(_argv(mode, samples, workers, out, csv)) == 0
        outputs.append((out.read_bytes(), csv.read_bytes()))
        assert multiprocessing.active_children() == []
    assert capsys.readouterr().err == ""
    assert outputs[0] == outputs[1] == outputs[2]


def test_shares_are_contiguous_and_near_equal():
    for count in range(1, 30):
        for parts in range(1, count + 1):
            shares = _split(count, parts)
            assert [i for share in shares for i in share] == list(range(count))
            assert max(map(len, shares)) - min(map(len, shares)) <= 1


# Call sizes at a grid budget of 800 draws and at the kernel's own,
# kernel.CHUNK = 4096, where a slab of 50 tables at B = 200 is cut into
# calls of 17, 17 and 16 tables.
@pytest.mark.parametrize(
    "b,tables,size",
    [(200, 100, 4), (200, 10, 4), (200, 1, 1), (1000, 3, 1), (1, 2000, 250), (1, 1000, 250),
     (1, 256, 256), (1, 257, 129), (40, 10, 10), (80, 10, 10), (100, 10, 5)],
)
def test_kernel_calls_stay_within_draw_and_table_caps(monkeypatch, b, tables, size):
    monkeypatch.setattr(kernel, "CHUNK", 800)
    cfg = StudyConfig(mode="sate", setting="nonparallel", n=25, samples=tables, randomizations=b)
    assert _call_size(cfg, tables) == size


@pytest.mark.parametrize(
    "b,tables,size",
    [(200, 100, 20), (200, 10, 10), (200, 1, 1), (1000, 3, 3), (1000, 10, 4), (4096, 3, 1),
     (4097, 3, 1), (5000, 2, 1), (4095, 2, 1), (2048, 5, 2), (1, 2000, 250), (1, 257, 129),
     (100, 100, 34)],
)
def test_kernel_calls_take_the_grid_budget(b, tables, size):
    cfg = StudyConfig(mode="sate", setting="nonparallel", n=25, samples=tables, randomizations=b)
    assert _call_size(cfg, tables) == size


# At n = 100 a slab holds at most 64 tables, so a block is cut into
# slabs first and each slab into kernel calls.
@pytest.mark.parametrize(
    "b,tables,slab,size",
    [(200, 100, 50, 4), (200, 64, 64, 4), (200, 65, 33, 4), (200, 1, 1, 1),
     (1, 2000, 63, 63), (1, 64, 64, 64), (1, 65, 33, 33), (100, 200, 50, 8)],
)
def test_slabs_stay_within_pair_cap(monkeypatch, b, tables, slab, size):
    monkeypatch.setattr(kernel, "CHUNK", 800)
    cfg = StudyConfig(mode="sate", setting="nonparallel", n=100, samples=tables, randomizations=b)
    assert _slab_size(cfg, tables) == slab
    assert _call_size(cfg, tables) == size


@pytest.mark.parametrize(
    "b,tables,slab,size",
    [(200, 100, 50, 17), (200, 200, 50, 17), (200, 64, 64, 16), (200, 65, 33, 17),
     (200, 1, 1, 1), (1, 2000, 63, 63), (100, 200, 50, 25), (5000, 100, 50, 1)],
)
def test_slab_calls_take_the_grid_budget(b, tables, slab, size):
    cfg = StudyConfig(mode="sate", setting="nonparallel", n=100, samples=tables, randomizations=b)
    assert _slab_size(cfg, tables) == slab
    assert _call_size(cfg, tables) == size


def _passes(config, samples):
    """The kernel calls of ``_study_block`` over ``range(samples)``, as (slab, pass, tables read).

    Streams, tables and slabs are stand-ins that only carry the indices,
    so any size runs at once.
    """
    class Streams:
        def __init__(self, config, idxs):
            pass

        def normals(self, count):
            return None

        def times(self, count):
            return count

    passes = []

    def step(slab, rows, times):
        passes.append((slab.idxs, slab.idxs[rows], times))
        return {"rows": np.zeros(len(slab.idxs[rows]))}

    def slabs(config, idxs, *tables):
        yield SimpleNamespace(idxs=idxs)

    with mock.patch.multiple(engine, _StudyStreams=Streams, _sate_columns=step, _slabs=slabs,
                             stacked_tables=lambda normals, setting: (None,) * 4):
        _study_block((config, range(samples)))
    return passes


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 400),
    b=st.one_of(st.integers(1, 300), st.integers(1, 3 * kernel.CHUNK)),
    samples=st.integers(1, 500),
    pairs=st.integers(1, 20000),
)
def test_every_pass_holds_tables_of_its_slab_within_the_grid_budget(n, b, samples, pairs):
    cfg = StudyConfig(mode="sate", setting="nonparallel", n=n, samples=samples, randomizations=b)
    with mock.patch.object(engine, "_STUDY_PAIRS", pairs):
        passes = _passes(cfg, samples)
    assert [i for _, part, _ in passes for i in part] == list(range(samples))
    slabs = {}
    for slab, part, read in passes:
        assert len(part) >= 1 and read == len(part)
        assert set(part) <= set(slab)
        assert len(part) * b <= max(kernel.CHUNK, b)
        slabs.setdefault(slab, []).append(len(part))
    for slab, sizes in slabs.items():
        assert len(slab) <= max(1, pairs // n)
        # The fewest passes the budget allows, all but the last of one size,
        # the smallest size that count of passes can have.
        most = max(1, kernel.CHUNK // b)
        assert len(sizes) == -(-len(slab) // most)
        assert set(sizes[:-1]) <= {sizes[0]} and sizes[-1] <= sizes[0]
        assert sizes[0] == -(-len(slab) // len(sizes))


# At --n 25 under exp/exp, seed 23 gives RankDeficient for sample 0 and
# DimensionMismatch for samples 1-3; seed 86 passes sample 0, gives
# RankDeficient for sample 1 and DimensionMismatch for samples 2 and 3.
# The first failing sample lies in the caller's share at S=4 with two
# workers (and for seed 23 with three), and in the first child's share
# at S=3 with two or three workers (and for seed 86 at S=4 with three);
# a later sample fails with another error each time.
@pytest.mark.parametrize(
    "seed,samples,sample",
    [(23, 4, 0), (86, 4, 1), (86, 3, 1)],
)
def test_failing_study_raises_what_one_worker_raises(seed, samples, sample):
    raised = []
    for workers in (1, 2, 3):
        cfg = StudyConfig(mode="pate", setting="nonparallel", n=25, samples=samples,
                          seed=seed, f=T.exp(), g=T.exp(), workers=workers)
        with pytest.raises(RankDeficient) as info:
            run_study(cfg)
        assert multiprocessing.active_children() == []
        raised.append((type(info.value), str(info.value)))
    assert raised[0][1].startswith(f"sample {sample}: ")
    assert raised[0] == raised[1] == raised[2]


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_failing_study_keeps_exit_code_across_workers(tmp_path, capsys, workers):
    argv = ["simulate", "--mode", "pate-study", "--setting", "nonparallel", "--n", "25",
            "--f", "exp", "--g", "exp", "--S", "50", "--seed", "3", "--workers", workers,
            "--out", str(tmp_path / "r.json")]
    assert main(argv) == DimensionMismatch.exit_code
    err = capsys.readouterr().err
    assert err == "paired-adjust: error: m columns must sum to zero across pairs\n"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers,samples,started", [(1, 6, None), (2, 6, 1), (3, 6, 2),
                                                     (3, 2, 1), (2, 1, None)])
def test_workers_k_start_k_minus_one_processes(monkeypatch, workers, samples, started):
    pools = []

    class Counting(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            self.asked = max_workers

        def __exit__(self, *exc):
            pools.append((self.asked, len(multiprocessing.active_children())))
            return super().__exit__(*exc)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
    cfg = StudyConfig(mode="sate", setting="nonparallel", n=16, samples=samples,
                      randomizations=5, seed=4, workers=workers)
    run_study(cfg)
    assert pools == ([] if started is None else [(started, started)])
    assert multiprocessing.active_children() == []
