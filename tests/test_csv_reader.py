"""The CSV data-row reader against the csv.reader/int()/float() reference.

Experiment and science-table files are drawn with the variations the
input contract allows (row and pair order, a byte-order mark, CRLF
endings, blank and whitespace-only lines, quoted and padded fields,
signs and exponents) and with at most one defect. Where README's number
grammar agrees with Python's, the loaders must give bitwise-equal arrays
or the same exception and message as the reference; where README lists
a change, the new reader must name the changed token. The same files go
through ``analyze --input`` and ``enumerate --input``, which must exit
with a code of the contract and print no traceback or warning, and a
stated share of the experiment files must reach analyze's fits.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paired_adjust import DataError, MalformedRow, dgp, experiment_model
from paired_adjust.cli import main
from paired_adjust.dgp import PotentialOutcomeSample, load_science_table, write_science_table
from paired_adjust.experiment_model import load_experiment_csv

from oracles import read_pairs_oracle


def _three_digits(value: float) -> str:
    """``value`` to 3 significant digits, or its repr where those round past the float range.

    1.7976931348623157e308 is "1.8e+308" to 3 digits, which both readers
    take as inf, so that form would turn a finite draw into a
    non-finite one.
    """
    text = f"{value:.3g}"
    return text if math.isfinite(float(text)) else repr(value)


# Text forms of finite doubles; float() and numpy's reader must read each
# to the same bits, and each reads a finite value back as finite.
_FORMS = (repr, "{:.25e}".format, _three_digits, "{:+.17E}".format)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Values within the kernel's limit of 2^400, with zeros and ones.
_WITHIN_LIMIT = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(-(2.0**400), 2.0**400))
# Zeros and ones among values whose squares overflow, as in a table whose
# one huge outcome once made enumerate warn and report NaN.
_NEAR_RANGE = st.one_of(
    st.sampled_from((0.0, 1.0)),
    st.floats(1e150, sys.float_info.max),
    st.floats(-sys.float_info.max, -1e150),
)
_BLANKS = ("", "  ", "\t", " \t ")

# Defects whose outcome the grammar change leaves alone, and the tokens
# that replace one field for the token kinds among them.
_SAME = ("arity_drop", "arity_add", "garbage", "nonfinite", "empty", "unit_range",
         "z_range", "repeat_unit", "missing_unit")
_GARBAGE = ("abc", "1.2.3", "--1", "e5", "0x10", "1e", ".", "+", "nan(1)", "1.5j", " ",
            "2.0", "1e3", '"1,5"', "1 2")
_NONFINITE = ("nan", "inf", "-inf", "1e400", "-1e999", "NaN", "Infinity")
# README's grammar changes: tokens int()/float() read and numpy's reader refuses,
# as (integer form, number form).
_CHANGED = {
    "separator": ("1_0", "1_000.5"),
    "non_ascii": ("١", "١.٥"),
    "wide": (str(2**63), None),
}


@st.composite
def csv_files(draw, kind, finite=_FINITE, responses=None):
    """(text, mutation, line, field, n_int) for a drawn ``kind`` ("experiment" or "science") file.

    Its numbers are ``finite`` values in drawn text forms, but an
    experiment's responses are ``responses`` values when given. An
    experiment with one covariate has 4 to 8 pairs, so that analyze's
    default identity transforms (n > 3) can fit it; other files have 1
    to 5, too few for two covariates. ``line`` is the file line of the mutated row (None if no row
    was changed in place), ``field`` its changed field and ``n_int`` the
    count of integer fields; ``text`` carries a byte-order mark and CRLF
    endings as drawn.
    """
    first = finite
    if kind == "experiment":
        p = draw(st.integers(1, 2))
        n = draw(st.integers(4, 8) if p == 1 else st.integers(1, 5))
        header = ["pair", "unit", "z", "y", *(f"x{j}" for j in range(1, p + 1))]
        n_int = 3
        first = finite if responses is None else responses
    else:
        n = draw(st.integers(1, 5))
        groups = [g for g in ("w", "x") if draw(st.booleans())]
        header = ["pair", "unit", *(f"{g}{j}" for g in groups for j in range(1, 5)), "r_t", "r_c"]
        n_int = 2
    width = len(header)
    ids = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n, unique=True))
    rows = []
    for pair in ids:
        treated = draw(st.integers(1, 2))
        for unit in (1, 2):
            numbers = [draw(st.sampled_from(_FORMS))(draw(first if k == 0 else finite))
                       for k in range(width - n_int)]
            # A finite draw reaches the parser as a finite number; only a
            # "nonfinite" defect below writes a non-finite token.
            assert all(math.isfinite(float(text)) for text in numbers)
            flags = [str(int(unit == treated))] if n_int == 3 else []
            rows.append([str(pair), str(unit), *flags, *numbers])
    rows = draw(st.permutations(rows))

    # Half the files are well formed, so that some reach the commands' fits.
    mutation = draw(st.one_of(st.none(), st.sampled_from((*_SAME, *_CHANGED))))
    r = draw(st.integers(0, len(rows) - 1))
    field = None
    if mutation == "arity_drop":
        rows[r] = rows[r][:-1]
    elif mutation == "arity_add":
        rows[r] = [*rows[r], "0"]
    elif mutation == "missing_unit":
        del rows[r]
    elif mutation == "repeat_unit":
        field = 1
        rows[r][1] = str(3 - int(rows[r][1]))
    elif mutation == "unit_range":
        field = 1
        rows[r][1] = draw(st.sampled_from(("0", "3", "-1", str(2**63 - 1))))
    elif mutation == "z_range" and n_int == 3:
        field = 2
        rows[r][2] = draw(st.sampled_from(("2", "-1")))
    elif mutation in ("garbage", "empty", "nonfinite"):
        field = draw(st.integers(0 if mutation != "nonfinite" else n_int, width - 1))
        tokens = {"garbage": _GARBAGE, "empty": ("",), "nonfinite": _NONFINITE}[mutation]
        rows[r][field] = draw(st.sampled_from(tokens))
    elif mutation in _CHANGED:
        as_int, as_number = _CHANGED[mutation]
        field = draw(st.integers(0, width - 1 if as_number else n_int - 1))
        rows[r][field] = as_int if field < n_int else as_number

    # Padding and quotes around one in eight untouched fields, then blank lines.
    for k, row in enumerate(rows):
        for c, token in enumerate(row):
            if (k, c) == (r, field) or not token or draw(st.integers(0, 7)):
                continue
            token = draw(st.sampled_from((" {}", "{} ", "\t{}"))).format(token)
            row[c] = f'"{token}"' if draw(st.booleans()) else token
    lines = [",".join(row) for row in rows]
    line = None
    if field is not None:
        lines[r] = (lines[r], r)  # mark the row to find its line after blanks go in
    for at, blank in draw(st.lists(st.tuples(st.integers(0, len(lines)), st.sampled_from(_BLANKS)),
                                   max_size=3)):
        lines.insert(at, blank)
    for k, text in enumerate(lines):
        if isinstance(text, tuple):
            lines[k], line = text[0], k + 2
    ending = draw(st.sampled_from(("\n", "\r\n")))
    text = ending.join([",".join(header), *lines])
    if draw(st.booleans()):
        text += ending
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text, mutation, line, field, n_int


def _outcome(loader, text):
    """What ``loader`` makes of ``text`` read as the command line reads a file."""
    source = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8-sig", newline="")
    try:
        got = loader(source)
    except DataError as exc:
        return type(exc), str(exc)
    if loader is load_experiment_csv:
        arrays = (got.x, got.z, got.y)
        ids = got.pair_ids
        assert all(type(i) is int for i in ids)
    else:
        arrays = tuple(a for a in (got.r_t, got.r_c, got.x, got.w) if a is not None)
        ids = ()
    return ids, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _reference(loader, text):
    with mock.patch.object(experiment_model, "read_pairs", read_pairs_oracle), \
            mock.patch.object(dgp, "read_pairs", read_pairs_oracle):
        return _outcome(loader, text)


_LOADERS = {"experiment": load_experiment_csv, "science": load_science_table}


@pytest.mark.parametrize("kind", sorted(_LOADERS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_reader_matches_the_reference(kind, data):
    text, mutation, line, field, n_int = data.draw(csv_files(kind))
    loader = _LOADERS[kind]
    got = _outcome(loader, text)
    if mutation in _CHANGED:
        token = _CHANGED[mutation][field >= n_int]
        what = "a number" if field >= n_int else "an integer"
        assert got == (MalformedRow, f"line {line}: cannot parse {token!r} as {what}")
    else:
        assert got == _reference(loader, text)


@pytest.mark.parametrize(
    "row, message",
    [
        ("1,1,1,1_000.5,0.5", "line 2: cannot parse '1_000.5' as a number"),
        ("1,1,1,١.٥,0.5", "line 2: cannot parse '١.٥' as a number"),
        ("1,١,1,2.0,0.5", "line 2: cannot parse '١' as an integer"),
        ("9223372036854775808,1,1,2.0,0.5", "line 2: cannot parse '9223372036854775808' as an integer"),
        ("-9223372036854775809,1,1,2.0,0.5", "line 2: cannot parse '-9223372036854775809' as an integer"),
    ],
    ids=["separator", "non-ascii", "non-ascii-int", "pair-above-int64", "pair-below-int64"],
)
def test_tokens_python_read_are_refused(row, message):
    text = f"pair,unit,z,y,x1\n{row}\n1,2,0,1.0,0.25\n"
    with pytest.raises(MalformedRow, match=f"^{re.escape(message)}$"):
        load_experiment_csv(io.StringIO(text))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("body", ["", "\n", "  \n\t\n", "\r\n \r\n"])
def test_header_only_file_has_no_data_rows(body):
    with pytest.raises(MalformedRow, match="^no data rows$"):
        load_experiment_csv(io.StringIO("pair,unit,z,y,x1\n" + body, newline=""))


def test_refusal_no_check_explains_keeps_numpy_message():
    # numpy's reader refuses the NUL in the file but not in the token
    # re-read alone, so no check names a line.
    text = "pair,unit,z,y,x1\n1,1,1,2.0,0.5\n1,2,0,1.0,0.25\x00\n"
    with pytest.raises(MalformedRow, match=r"^could not convert string '0\.25\\x00' to float64"):
        load_experiment_csv(io.StringIO(text))


def _run(argv):
    """Exit code, stderr and the warnings of one in-process command."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


def _check_exit_contract(kind, text):
    """The exit code of ``text`` through its command, checked against the contract."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "input.csv"
        path.write_text(text, encoding="utf-8", newline="")
        if kind == "experiment":
            argv = ["analyze", "--input", str(path)]
        else:
            argv = ["enumerate", "--input", str(path)]
        code, err, caught = _run(argv)
    assert code in {0, 2, 3, 4, 5}, err
    assert "Traceback" not in err
    assert caught == []
    return code


def _exit_codes(kind, *values):
    """The exit codes of 60 drawn ``kind`` files, ``csv_files(kind, *values)``, each checked."""
    codes = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def check(data):
        codes.append(_check_exit_contract(kind, data.draw(csv_files(kind, *values))[0]))

    check()
    return codes


def _fitted_share(codes):
    """The share of files whose fits ran: exit 0, or 3 for a singular design."""
    return sum(code in (0, 3) for code in codes) / len(codes)


# Most experiment responses are drawn within the kernel's limit and the
# rest from the whole float range, so that the files test analyze's fits
# and not only its refusal of a response beyond 2^400.
_RESPONSES = st.one_of(_WITHIN_LIMIT, _FINITE)


@pytest.mark.parametrize("kind", ["experiment", "science"])
def test_commands_keep_the_exit_contract_on_any_csv(kind):
    if kind == "science":
        _exit_codes(kind)
        return
    codes = _exit_codes(kind, _FINITE, _RESPONSES)
    # 12 of the 60 files reach the fits, where 3 did with every response
    # drawn from the whole float range. hypothesis seeds its draws with
    # literals it finds in the package's modules, so the share moves when
    # they change (by 3 -> 1 of 60 files for one added float literal with
    # the old responses); the bound sits below the measured share.
    assert _fitted_share(codes) >= 1 / 10


def test_enumerate_keeps_the_exit_contract_near_the_float_range():
    _exit_codes("science", _NEAR_RANGE)


# Zeros and ones among covariates whose squares overflow but whose pair
# sums and differences do not, with responses within the kernel's limit
# of 2^400, so that the files reach analyze's fits.
_NEAR_RANGE_COVARIATES = st.one_of(
    st.sampled_from((0.0, 1.0)), st.floats(1e150, 1e307), st.floats(-1e307, -1e150)
)


def test_analyze_keeps_the_exit_contract_near_the_float_range():
    codes = _exit_codes("experiment", _NEAR_RANGE_COVARIATES, _WITHIN_LIMIT)
    # 24 of the 60 files reach the fits, whose m'm would overflow.
    assert _fitted_share(codes) >= 1 / 4


def test_enumerate_refuses_outcomes_beyond_the_kernel_limit(tmp_path):
    # Three pairs of zeros but one outcome near -2.7e284: enumerate used
    # to warn of overflow and report NaN with exit 0.
    r_t, r_c = np.zeros((3, 2)), np.zeros((3, 2))
    r_c[1, 0] = -2.674544356854825e284
    write_science_table(PotentialOutcomeSample(r_t=r_t, r_c=r_c), tmp_path / "t.csv")
    code, err, caught = _run(["enumerate", "--input", str(tmp_path / "t.csv")])
    assert (code, caught) == (2, [])
    assert err == ("paired-adjust: error: a potential outcome of magnitude 2.67454e+284 "
                   "exceeds the largest the randomization kernel takes, 2^400 (about 2.6e+120)\n")


def test_enumerate_takes_outcomes_at_the_kernel_limit(tmp_path):
    # Outcomes of +-2^400 at n = 16 through every estimator: each sum of
    # squares stays finite, so the summaries do and nothing warns.
    rng = np.random.default_rng(5)
    r_t, r_c = (np.where(rng.random((16, 2)) < 0.5, -1.0, 1.0) * 2.0**400 for _ in range(2))
    sample = PotentialOutcomeSample(r_t=r_t, r_c=r_c, x=rng.standard_normal((16, 2, 4)))
    write_science_table(sample, tmp_path / "t.csv")
    out = tmp_path / "r.json"
    code, err, caught = _run(["enumerate", "--input", str(tmp_path / "t.csv"), "--out", str(out)])
    assert (code, err, caught) == (0, "", [])
    estimators = json.loads(out.read_text())["summary"]["estimators"]
    assert sorted(estimators) == ["C", "R1", "R2", "R2P"]
    assert all(np.isfinite(v) for cell in estimators.values() for v in cell.values())


def _limit_experiment(path, top):
    """A 16-pair experiment CSV whose responses reach ``top`` in magnitude, both signs."""
    rng = np.random.default_rng(8)
    y = top * rng.uniform(-1.0, 1.0, (16, 2))
    y[0, 0], y[5, 1] = top, -top
    treated = rng.integers(1, 3, 16)
    x = rng.standard_normal((16, 2, 2))
    lines = ["pair,unit,z,y,x1,x2"] + [
        ",".join([str(i + 1), str(u + 1), str(int(treated[i] == u + 1)),
                  *map(repr, map(float, (y[i, u], *x[i, u])))])
        for i in range(16) for u in range(2)
    ]
    path.write_text("\n".join(lines) + "\n")


def _numbers(doc):
    if isinstance(doc, dict):
        return [x for value in doc.values() for x in _numbers(value)]
    if isinstance(doc, list):
        return [x for item in doc for x in _numbers(item)]
    return [doc] if isinstance(doc, float) else []


def test_analyze_refuses_responses_beyond_the_kernel_limit(tmp_path):
    # One response of 1e200 used to give Infinity in the report, with an
    # overflow warning and exit 0.
    _limit_experiment(tmp_path / "e.csv", 1e200)
    code, err, caught = _run(["analyze", "--input", str(tmp_path / "e.csv")])
    assert (code, caught) == (2, [])
    assert err == ("paired-adjust: error: a response of magnitude 1e+200 exceeds the largest "
                   "the estimators take, 2^400 (about 2.6e+120)\n")


@pytest.mark.parametrize("flags", [["--variance", "classical"], ["--variance", "HC2"],
                                   ["--variance", "HC3"], ["--target", "pate"]])
def test_analyze_takes_responses_at_the_kernel_limit(tmp_path, flags):
    _limit_experiment(tmp_path / "e.csv", 2.0**400)
    report = tmp_path / "r.json"
    code, err, caught = _run(["analyze", "--input", str(tmp_path / "e.csv"), *flags,
                              "--out", str(report)])
    assert (code, err, caught) == (0, "", [])
    doc = json.loads(report.read_text())
    assert len(doc["estimates"]) == 4
    numbers = _numbers(doc["estimates"])
    assert max(map(abs, numbers)) > 2.0**380
    assert all(np.isfinite(numbers))
