"""One option table per subcommand: flags, config files and the seed
environment variable follow the same rules.

Only ``simulate`` and ``generate`` draw, so only they take a seed; the
seed variable reaches no other command.

Every option's flag spelling and config-file spelling of one valid
value must give the same bytes; integers are strict (no booleans, no
non-integral numbers), seeds are non-negative, and ``--help`` names
every option and every choice.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paired_adjust import (
    PotentialOutcomeSample,
    TransformSpec,
    generate_sample,
    randomize,
    reveal,
    substream,
    write_experiment_csv,
    write_science_table,
)
from paired_adjust.cli import _MODES, _OPTION_TABLES, _TARGETS, main, parse_transform
from paired_adjust.dgp import SETTINGS
from paired_adjust.errors import ConfigError, NonFiniteTransform, as_alpha, int_at_least, one_of
from paired_adjust.estimators import FLAVORS
from paired_adjust.experiment_model import strict_int, transformed_blocks
from paired_adjust.rng import ROLE_ASSIGN

from conftest import make_sample

KINDS = ("identity", "log", "exp", "power", "select")


@pytest.fixture()
def dirs(tmp_path):
    inp, out = tmp_path / "in", tmp_path / "out"
    inp.mkdir()
    out.mkdir()
    s = make_sample(np.random.default_rng(5), 12)
    exp, _ = reveal(s, randomize(12, substream(40, ROLE_ASSIGN)))
    write_experiment_csv(exp, inp / "exp.csv")
    write_science_table(generate_sample(8, "nonparallel", seed=11), inp / "t.csv", inp / "t.json")
    return tmp_path, inp, out


def _base(inp, out):
    """Valid small flags per subcommand, as (option, flag text) pairs."""
    return {
        "analyze": {"input": str(inp / "exp.csv")},
        "simulate": {
            "setting": "parallel", "n": "12", "S": "3", "B": "3",
            "f": "select:1,2", "g": "select:3", "workers": "1", "seed": "5",
        },
        "enumerate": {"input": str(inp / "t.csv"), "f": "select:1", "g": "select:2"},
        "generate": {"n": "6", "setting": "parallel", "out": str(out / "g.csv")},
    }


def _values(inp, out):
    """(subcommand, option) -> (flag text, config-file value) of one valid value."""
    sel = lambda *cols: {"kind": "select", "columns": list(cols)}  # noqa: E731
    return {
        ("analyze", "input"): (str(inp / "exp.csv"),) * 2,
        ("analyze", "f"): ("select:1,3", sel(1, 3)),
        ("analyze", "g"): ("select:2", sel(2)),
        ("analyze", "target"): ("pate", "pate"),
        ("analyze", "variance"): ("HC3", "HC3"),
        ("analyze", "alpha"): ("0.1", 0.1),
        ("analyze", "out"): (str(out / "a.json"),) * 2,
        ("simulate", "setting"): ("nonparallel", "nonparallel"),
        ("simulate", "n"): ("14", 14),
        ("simulate", "S"): ("4", 4),
        ("simulate", "B"): ("4", 4),
        ("simulate", "mode"): ("pate-study", "pate-study"),
        ("simulate", "f"): ("power:1", {"kind": "power", "degree": 1}),
        ("simulate", "g"): ("select:1,2", sel(1, 2)),
        ("simulate", "alpha"): ("0.2", 0.2),
        ("simulate", "seed"): ("6", 6),
        ("simulate", "workers"): ("2", 2),
        ("simulate", "out"): (str(out / "s.json"),) * 2,
        ("simulate", "csv"): (str(out / "s.csv"),) * 2,
        ("enumerate", "input"): (str(inp / "t.csv"),) * 2,
        ("enumerate", "meta"): (str(inp / "t.json"),) * 2,
        ("enumerate", "cap"): ("9", 9),
        ("enumerate", "f"): ("select:1,2", sel(1, 2)),
        ("enumerate", "g"): ("select:3", sel(3)),
        ("enumerate", "alpha"): ("0.1", 0.1),
        ("enumerate", "out"): (str(out / "e.json"),) * 2,
        ("enumerate", "histogram"): (str(out / "h.csv"),) * 2,
        ("generate", "n"): ("7", 7),
        ("generate", "setting"): ("nonparallel", "nonparallel"),
        ("generate", "seed"): ("3", 3),
        ("generate", "out"): (str(out / "g2.csv"),) * 2,
    }


def _run(capsys, out, argv):
    """Exit code, stdout and the bytes of every file written to ``out``."""
    code = main(argv)
    stdout = capsys.readouterr().out
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    shutil.rmtree(out)
    out.mkdir()
    return code, stdout, files


def _flags(options):
    return [part for name, text in options.items() for part in (f"--{name}", text)]


def test_every_declared_option_has_a_sample_value():
    declared = {(cmd, name) for cmd, table in _OPTION_TABLES.items() for name in table}
    assert set(_values(Path("in"), Path("out"))) == declared


@pytest.mark.parametrize(
    "command,option",
    [(cmd, name) for cmd, table in _OPTION_TABLES.items() for name in table],
)
def test_flag_and_config_file_spellings_agree(capsys, dirs, command, option):
    tmp, inp, out = dirs
    flag_text, file_value = _values(inp, out)[(command, option)]
    base = {k: v for k, v in _base(inp, out)[command].items() if k != option}
    by_flag = _run(capsys, out, [command, *_flags(base), f"--{option}", flag_text])
    conf = tmp / "conf.json"
    conf.write_text(json.dumps({option: file_value}))
    by_file = _run(capsys, out, [command, *_flags(base), "--config", str(conf)])
    assert by_flag[0] == 0
    assert by_flag == by_file


def test_env_seed_matches_seed_flag(capsys, dirs, monkeypatch):
    _, inp, out = dirs
    argv = ["generate", *_flags(_base(inp, out)["generate"])]
    by_flag = _run(capsys, out, argv + ["--seed", "8"])
    monkeypatch.setenv("PAIRED_ADJUST_SEED", "8")
    assert _run(capsys, out, argv) == by_flag


@pytest.mark.parametrize("command", ["analyze", "enumerate"])
def test_commands_that_draw_nothing_take_no_seed(capsys, dirs, monkeypatch, command):
    # Their reports and exit codes depend on data and flags alone: the
    # seed variable, valid or not, changes nothing, and a seed flag is refused.
    _, inp, out = dirs
    argv = [command, *_flags(_base(inp, out)[command]), "--out", str(out / "r.json")]
    monkeypatch.delenv("PAIRED_ADJUST_SEED", raising=False)
    without = _run(capsys, out, argv)
    assert without[0] == 0
    for env in ("-1", "abc", "12345"):
        monkeypatch.setenv("PAIRED_ADJUST_SEED", env)
        assert _run(capsys, out, argv) == without, env
    monkeypatch.delenv("PAIRED_ADJUST_SEED")
    with pytest.raises(SystemExit) as info:
        main(argv + ["--seed", "3"])
    assert info.value.code == 4
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "command,flags,conf,env",
    [
        ("generate", ["--setting", "parallel"], {"n": 12.7}, None),
        ("simulate", ["--setting", "parallel", "--n", "12", "--S", "1"], {"B": True}, None),
        ("analyze", [], {"f": {"kind": "power", "degree": 1.9}}, None),
        ("generate", ["--setting", "parallel", "--n", "12.7"], None, None),
        ("analyze", ["--f", "power:1.9"], None, None),
        ("generate", ["--setting", "parallel", "--n", "6", "--seed", "-1"], None, None),
        ("generate", ["--setting", "parallel", "--n", "6"], {"seed": -1}, None),
        ("generate", ["--setting", "parallel", "--n", "6"], None, "-1"),
        ("simulate", ["--setting", "parallel", "--n", "true", "--S", "1"], None, None),
        ("analyze", [], {"alpha": True}, None),
        ("analyze", [], {"f": {"kind": "select", "columns": [1.5]}}, None),
        ("generate", ["--setting", "parallel", "--n", "0"], None, None),
        ("enumerate", ["--input", "unread.csv", "--cap", "-1"], None, None),
    ],
)
def test_bad_values_exit_4(capsys, dirs, monkeypatch, command, flags, conf, env):
    tmp, inp, out = dirs
    argv = [command, *flags]
    if command == "analyze":
        argv += ["--input", str(inp / "exp.csv"), "--out", str(out / "a.json")]
    else:
        argv += ["--out", str(out / "r.csv")]
    if conf is not None:
        (tmp / "conf.json").write_text(json.dumps(conf))
        argv += ["--config", str(tmp / "conf.json")]
    if env is not None:
        monkeypatch.setenv("PAIRED_ADJUST_SEED", env)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("paired-adjust: error:")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "command,option",
    [("simulate", "n"), ("simulate", "S"), ("simulate", "B"), ("simulate", "workers"),
     ("enumerate", "cap"), ("generate", "n")],
)
def test_counts_below_one_exit_4(capsys, dirs, command, option):
    _, inp, out = dirs
    options = {**_base(inp, out)[command], option: "0"}
    assert main([command, *_flags(options)]) == 4
    captured = capsys.readouterr()
    assert captured.err == f"paired-adjust: error: --{option}: must be >= 1, got 0\n"
    assert captured.out == "" and list(out.iterdir()) == []


@pytest.mark.parametrize(
    "command,option", [("analyze", "input"), ("enumerate", "input"), ("enumerate", "meta")]
)
def test_unreadable_input_exits_2(capsys, dirs, command, option):
    _, inp, out = dirs
    missing = str(inp / "missing.csv")
    options = {**_base(inp, out)[command], option: missing}
    assert main([command, *_flags(options)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"paired-adjust: error: cannot read {missing}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "command,option",
    [(cmd, name) for cmd, table in _OPTION_TABLES.items() for name in table
     if name in ("out", "csv", "histogram")],
)
def test_output_in_missing_directory_exits_4_before_work(capsys, dirs, command, option):
    tmp, inp, out = dirs
    options = {**_base(inp, out)[command], option: str(tmp / "missing" / "x.out")}
    assert main([command, *_flags(options)]) == 4
    captured = capsys.readouterr()
    assert captured.err == (
        f"paired-adjust: error: --{option}: directory {str(tmp / 'missing')!r} does not exist\n"
    )
    assert captured.out == "" and list(out.iterdir()) == []
    assert not (tmp / "missing").exists()


@pytest.mark.parametrize(
    "command,choices",
    [
        ("analyze", _TARGETS + FLAVORS + KINDS),
        ("simulate", SETTINGS + _MODES + KINDS),
        ("enumerate", KINDS),
        ("generate", SETTINGS),
    ],
)
def test_help_names_every_option_and_choice(capsys, monkeypatch, command, choices):
    monkeypatch.setenv("COLUMNS", "240")  # keep hyphenated choices on one line
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    text = capsys.readouterr().out
    for name in ["config", *_OPTION_TABLES[command]]:
        assert f"--{name} " in text
    for choice in choices:
        assert choice in text


@pytest.mark.parametrize(
    "value,want",
    [(3, 3), (3.0, 3), ("3", 3), (" 12 ", 12), ("-1", -1), (np.int64(4), 4)],
)
def test_strict_int_accepts_integers(value, want):
    got = strict_int(value)
    assert got == want and type(got) is int


@pytest.mark.parametrize(
    "value", [True, False, 12.7, float("inf"), float("nan"), "12.7", "x", "", None, [1]]
)
def test_strict_int_rejects(value):
    with pytest.raises(ValueError):
        strict_int(value)


def test_one_transform_parser_for_text_and_mappings():
    assert parse_transform("power:2") == TransformSpec.from_dict({"kind": "power", "degree": "2"})
    assert parse_transform({"kind": "select", "columns": ["1", 3]}) == TransformSpec.select([1, 3])
    for bad in ({"kind": "power", "degree": True}, {"kind": "select", "columns": [2.5]}):
        with pytest.raises(ValueError):
            TransformSpec.from_dict(bad)
        with pytest.raises(ConfigError):
            parse_transform(bad)


def _float_max_sample(n=12):
    s = make_sample(np.random.default_rng(9), n)
    x = s.x.copy()
    x[0, :, 0] = 1.5e308  # finite, but the pair average overflows
    return PotentialOutcomeSample(r_t=s.r_t, r_c=s.r_c, x=x)


@pytest.mark.filterwarnings("error")
def test_float_max_covariates_exit_2(capsys, tmp_path):
    exp, _ = reveal(_float_max_sample(), randomize(12, substream(3, ROLE_ASSIGN)))
    path = tmp_path / "fmax.csv"
    write_experiment_csv(exp, path)
    code = main(["analyze", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("paired-adjust: error:") and "Traceback" not in err


@pytest.mark.filterwarnings("error")
def test_stacked_transformed_blocks_refuse_overflow():
    ok = make_sample(np.random.default_rng(1), 12).x
    stack = np.stack([ok, _float_max_sample().x, ok])
    ident = TransformSpec.identity()
    with pytest.raises(NonFiniteTransform):
        transformed_blocks(stack, ident, ident)
    d, m = transformed_blocks(stack[[0, 2]], ident, ident)
    assert np.isfinite(d).all() and np.isfinite(m).all()


_OUTPUT_OPTIONS = [(cmd, name) for cmd, table in _OPTION_TABLES.items() for name in table
                   if name in ("out", "csv", "histogram")]


@pytest.mark.parametrize("command,option", _OUTPUT_OPTIONS)
def test_output_that_is_a_directory_exits_4_before_work(capsys, dirs, command, option):
    tmp, inp, out = dirs
    options = {**_base(inp, out)[command], option: str(out)}
    assert main([command, *_flags(options)]) == 4
    captured = capsys.readouterr()
    assert captured.err == f"paired-adjust: error: --{option}: {str(out)!r} is a directory\n"
    assert captured.out == "" and list(out.iterdir()) == []


def test_generate_sidecar_that_is_a_directory_exits_4_before_work(capsys, dirs):
    _, _, out = dirs
    sidecar = out / "t.json"
    sidecar.mkdir()
    table = out / "t.csv"
    argv = ["generate", "--n", "6", "--setting", "parallel", "--out", str(table)]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.err == f"paired-adjust: error: --out: {str(sidecar)!r} is a directory\n"
    assert captured.out == "" and not table.exists()
    assert list(out.iterdir()) == [sidecar]


@pytest.mark.parametrize("command,option", _OUTPUT_OPTIONS)
def test_overlong_output_name_exits_4_before_work(capsys, dirs, command, option):
    tmp, inp, out = dirs
    options = {**_base(inp, out)[command], option: str(out / ("x" * 300))}
    assert main([command, *_flags(options)]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith(f"paired-adjust: error: --{option}: cannot use ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == "" and list(out.iterdir()) == []


@pytest.mark.parametrize("command,option", _OUTPUT_OPTIONS)
def test_failed_output_write_exits_4(capsys, dirs, command, option):
    # A link into a missing directory passes the up-front checks and
    # fails only when the file is opened for writing.
    tmp, inp, out = dirs
    links = tmp / "links"
    links.mkdir()
    link = links / "x.out"
    link.symlink_to(tmp / "missing" / "x.out")
    options = {**_base(inp, out)[command], option: str(link)}
    assert main([command, *_flags(options)]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith(f"paired-adjust: error: cannot write {link}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not (tmp / "missing").exists()


@pytest.mark.parametrize(
    "command,option", [("analyze", "input"), ("enumerate", "input"), ("enumerate", "meta")]
)
def test_non_utf8_input_exits_2(capsys, dirs, command, option):
    _, inp, out = dirs
    bad = inp / "bad.csv"
    bad.write_bytes(b"\xff\xfe\x00pair,unit\n")
    options = {**_base(inp, out)[command], option: str(bad)}
    assert main([command, *_flags(options)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"paired-adjust: error: cannot read {bad}: 'utf-8' codec")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.filterwarnings("error")
def test_one_pair_table_exits_2(capsys, dirs):
    _, inp, out = dirs
    table = out / "one.csv"
    assert main(["generate", "--n", "1", "--setting", "nonparallel", "--out", str(table)]) == 0
    capsys.readouterr()
    assert main(["enumerate", "--input", str(table)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "paired-adjust: error: need at least 2 pairs, got 1\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "contents", ["not json", "[1, 2]", '{"n": "abc"}', '{"sate": "x"}', '{"n": 6.5}']
)
def test_malformed_sidecar_exits_2_naming_it(capsys, tmp_path, contents):
    table, sidecar = tmp_path / "t.csv", tmp_path / "t.json"
    write_science_table(generate_sample(6, "nonparallel", seed=11), table)
    sidecar.write_text(contents, encoding="utf-8")
    assert main(["enumerate", "--input", str(table), "--meta", str(sidecar)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"paired-adjust: error: sidecar {sidecar}: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


def _drawn_values(command, name, opt, inp, out):
    """(in range, out of range) values of one option, read off its cast in the option table."""
    cast = getattr(opt.cast, "func", opt.cast)
    if cast is int_at_least:
        low = opt.cast.keywords["low"]
        return [low, low + 1, 10], [low - 1, 2.5, True, "x"]
    if cast is as_alpha:
        return [0.05, 0.5], [0, 1, 1.5, -0.1, 1e-20, float("nan"), True, "x"]
    if cast is one_of:
        return list(opt.cast.keywords["choices"]), ["bogus", 3]
    if cast is parse_transform:
        return (["identity", "log", "exp", "power:2", "select:1", "select:", "select:9"],
                ["power:0", "power:1.5", "log:3", "cubic", {"kind": "select", "columns": [1, 1]}])
    assert cast is str, f"no values for the cast of {command} --{name}"
    if name in ("out", "csv", "histogram"):
        return [str(out / f"{name}.out")], [str(out / "missing" / f"{name}.out")]
    valid = {("analyze", "input"): "exp.csv", ("enumerate", "input"): "t.csv",
             ("enumerate", "meta"): "t.json"}
    return [str(inp / valid.get((command, name), "exp.csv"))], [str(inp / "junk.txt"),
                                                               str(inp / "missing.csv")]


@st.composite
def _invocations(draw, inp, out):
    """A subcommand and a value for each option it draws, as a flag or as a config-file key.

    An option is left out half the time (a required one a tenth), and a
    value given is out of range one time in five.
    """
    command = draw(st.sampled_from(sorted(_OPTION_TABLES)))
    flags, conf = [], {}
    for name, opt in _OPTION_TABLES[command].items():
        if draw(st.integers(0, 9)) < (1 if opt.required else 5):
            continue
        good, bad = _drawn_values(command, name, opt, inp, out)
        value = draw(st.sampled_from(bad if draw(st.integers(0, 4)) == 0 else good))
        if isinstance(value, dict) or draw(st.booleans()):
            conf[name] = value
        else:
            flags += [f"--{name}", str(value)]
    return command, flags, conf


@pytest.mark.filterwarnings("error")
@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_option_keeps_the_exit_code_contract(capsys, dirs, monkeypatch, data):
    tmp, inp, out = dirs
    (inp / "junk.txt").write_text("pair,unit\n1,2,3\n", encoding="utf-8")
    monkeypatch.delenv("PAIRED_ADJUST_SEED", raising=False)
    command, flags, conf = data.draw(_invocations(inp, out))
    argv = [command, *flags]
    if conf:
        (tmp / "conf.json").write_text(json.dumps(conf), encoding="utf-8")
        argv += ["--config", str(tmp / "conf.json")]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    shutil.rmtree(out)
    out.mkdir()
    assert code in (0, 2, 3, 4, 5), argv
    assert "Traceback" not in err
