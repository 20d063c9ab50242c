"""One way in and out for every file: the library and the command line agree on it.

The loaders open paths through ``experiment_model.read_source`` and the
writers through ``experiment_model.writing``, which ``cli.main`` uses
too. So a file the command line refuses, the library refuses with the
same class (so the same exit code) and the message the command line
prints after "paired-adjust: error: ", and a file one accepts the other
accepts with equal results. A writer that cannot write its path, one in
a missing directory or one with a NUL in it, raises ConfigError, never a
bare OSError or ValueError.
"""

import errno
import json
import os

import numpy as np
import pytest

from paired_adjust import (
    ConfigError,
    PairedAdjustError,
    generate_sample,
    load_experiment_csv,
    load_science_table,
    randomize,
    reveal,
    substream,
    write_experiment_csv,
    write_science_table,
)
from paired_adjust.cli import main
from paired_adjust.rng import ROLE_ASSIGN

from conftest import generate_table

N = 12
BOM = b"\xef\xbb\xbf"


@pytest.fixture()
def files(tmp_path):
    """A science table with its ``generate`` sidecar, an experiment, and bad paths."""
    table, sidecar = generate_table(tmp_path / "table.csv", N)
    sample = generate_sample(N, "nonparallel", seed=11)
    experiment = tmp_path / "experiment.csv"
    write_experiment_csv(reveal(sample, randomize(N, substream(3, ROLE_ASSIGN)))[0], experiment)
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"pair,unit,z,y,x1\n1,1,1,0.5,\xe9\n")
    return {
        "table": table, "sidecar": sidecar, "experiment": experiment,
        "missing": tmp_path / "missing.csv", "directory": tmp_path, "latin1": latin1,
        "nul": tmp_path / "a\0b.csv",
    }


def _library(load):
    """``load()``'s result, or the class and message of the package error it raised."""
    try:
        return load()
    except PairedAdjustError as exc:
        return type(exc).exit_code, str(exc)


def _command(capsys, *argv):
    """The command's exit code and stderr message, or its report with the input paths left out."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    if code:
        assert err.startswith("paired-adjust: error: ") and err.count("\n") == 1, err
        return code, err[len("paired-adjust: error: "):-1]
    doc = json.loads(out)
    del doc["config"]["input"]
    doc["config"].pop("meta", None)
    return doc


@pytest.mark.parametrize("bad", ["missing", "directory", "latin1", "nul"])
def test_an_unreadable_file_is_refused_alike(capsys, files, bad):
    path = str(files[bad])
    refusal = _library(lambda: load_experiment_csv(path))
    assert refusal == _command(capsys, "analyze", "--input", path)
    assert refusal == _library(lambda: load_science_table(path))
    assert refusal == _command(capsys, "enumerate", "--input", path)
    # A sidecar is opened before the table is parsed, and refused the same way.
    assert refusal == _library(lambda: load_science_table(files["table"], path))
    assert refusal == _command(capsys, "enumerate", "--input", str(files["table"]),
                               "--meta", path)
    assert refusal[0] == 2 and refusal[1].startswith(f"cannot read {path}: ")


def _bom_crlf(path):
    """A copy of ``path`` with a byte-order mark and CRLF line endings."""
    edge = path.with_name("edge_" + path.name)
    edge.write_bytes(BOM + path.read_bytes().replace(b"\n", b"\r\n"))
    return edge


def test_a_byte_order_mark_and_crlf_endings_are_accepted_alike(capsys, files):
    table, sidecar, experiment = (files[k] for k in ("table", "sidecar", "experiment"))
    edge_table, edge_sidecar, edge_experiment = map(_bom_crlf, (table, sidecar, experiment))

    want, got = load_experiment_csv(experiment), load_experiment_csv(edge_experiment)
    for name in ("x", "z", "y", "pair_ids"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (_command(capsys, "analyze", "--input", str(edge_experiment))
            == _command(capsys, "analyze", "--input", str(experiment)))

    want, got = load_science_table(table, sidecar), load_science_table(edge_table, edge_sidecar)
    for name in ("r_t", "r_c", "w", "x"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.setting, got.seed) == (want.setting, want.seed) == ("nonparallel", 11)
    flags = ("--f", "select:1", "--g", "select:2")
    assert (_command(capsys, "enumerate", "--input", str(edge_table), "--meta",
                     str(edge_sidecar), *flags)
            == _command(capsys, "enumerate", "--input", str(table), "--meta", str(sidecar), *flags))


@pytest.mark.parametrize("writer", ["experiment", "science table"])
@pytest.mark.parametrize("name, reason", [("missing/out.csv", os.strerror(errno.ENOENT)),
                                          ("a\0b.csv", "embedded null byte")])
def test_a_writer_that_cannot_write_raises_config_error(tmp_path, writer, name, reason):
    path = tmp_path / name
    sample = generate_sample(4, "parallel", seed=1)
    with pytest.raises(ConfigError) as caught:
        if writer == "experiment":
            write_experiment_csv(reveal(sample, np.ones(4))[0], path)
        else:
            write_science_table(sample, path)
    assert str(caught.value) == f"cannot write {path}: {reason}"
    assert type(caught.value) is ConfigError


def test_generate_into_a_path_it_cannot_write_exits_4(capsys, tmp_path):
    path = tmp_path / "a\0b.csv"
    assert main(["generate", "--n", "4", "--setting", "parallel", "--out", str(path)]) == 4
    err = capsys.readouterr().err
    assert err == f"paired-adjust: error: cannot write {path}: embedded null byte\n"
