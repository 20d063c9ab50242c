"""The loaders split a file's lines once, as ``io.StringIO(text, newline="")`` would.

A line ends at LF, CRLF or a lone CR and nowhere else, so VT, FF, the
separator controls, NEL and U+2028 stay inside their line, where the
reader takes them as whitespace. Texts mix the three endings, put those
characters around fields and on blank lines, and quote a header field
or a data field across a line ending. Read from a path and from text
streams, each must give what ``read_pairs_oracle`` gives for the lines
``io.StringIO`` yields, except where README states that numpy's grammar
differs: the controls 0x1C-0x1F count as whitespace, and a quoted data
field may not span lines.
"""

from __future__ import annotations

import io
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paired_adjust import DataError, MalformedRow, dgp, experiment_model
from paired_adjust.dgp import load_science_table
from paired_adjust.experiment_model import load_experiment_csv, split_lines

from oracles import read_pairs_oracle

_ENDINGS = ("\n", "\r\n", "\r")
# Whitespace to numpy's reader and to Python's int() and float() alike,
# but for 0x1C, which only numpy's reader takes; str.splitlines breaks
# lines at all of them but space and tab.
_PADS = (" ", "\t", "\v", "\f", "\x1c", "\x85", "\u2028")
_BLANKS = ("", "  ", "\t", "\v\f", "\x85", "\u2028 ", "\x1c")
_SEPARATOR_CONTROLS = str.maketrans({c: " " for c in "\x1c\x1d\x1e\x1f"})


def _stripped(line: str) -> str:
    return re.sub(r"(\r\n|\r|\n)\Z", "", line)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(["a", "1", ",", " ", '"', *_ENDINGS, "\v", "\f", "\x1c", "\x1d",
                                  "\x1e", "\x85", "\u2028", "\u2029"]), max_size=40).map("".join))
def test_split_lines_and_file_text_cut_where_stringio_cuts(text):
    want = list(io.StringIO(text, newline=""))
    assert list(experiment_model._FileText(text, "file.csv")) == want
    got = split_lines(text)
    if '"' in text:
        assert got == want
    else:  # no ending can be part of a field, so the lines drop theirs
        assert got == [_stripped(line) for line in want]


@st.composite
def split_files(draw, kind):
    """(text, body, expected) for a drawn ``kind`` file; ``body`` is the text after the header.

    ``expected`` is None, or the MalformedRow message of a quoted data
    field drawn across a line ending.
    """
    if kind == "experiment":
        header = ["pair", "unit", "z", "y", "x1"]
        n_int = 3
    else:
        header = ["pair", "unit", "r_t", "r_c"]
        n_int = 2
    width = len(header)
    ids = draw(st.lists(st.integers(-99, 99), min_size=1, max_size=4, unique=True))
    rows = []
    for pair in ids:
        treated = draw(st.integers(1, 2))
        for unit in (1, 2):
            flags = [str(int(unit == treated))] if n_int == 3 else []
            numbers = [repr(draw(st.floats(-1e6, 1e6))) for _ in range(width - n_int)]
            rows.append([str(pair), str(unit), *flags, *numbers])
    rows = draw(st.permutations(rows))

    # Whitespace around one field in three and, in half the files, quotes
    # around some fields, which make the reader keep each line's ending.
    quotes = draw(st.booleans())
    for row in rows:
        for c, token in enumerate(row):
            if draw(st.integers(0, 2)):
                continue
            pad = draw(st.sampled_from(_PADS))
            token = pad + token if draw(st.booleans()) else token + pad
            row[c] = f'"{token}"' if quotes and draw(st.booleans()) else token

    mutation = draw(st.sampled_from((None, None, "arity_drop", "garbage", *["span"] * quotes)))
    r = draw(st.integers(0, len(rows) - 1))
    c = draw(st.integers(0, width - 1))
    # Each physical line is [text, ending, mark]; the mark finds a line
    # again after blank lines go in.
    lines = [[",".join(row), draw(st.sampled_from(_ENDINGS)), k] for k, row in enumerate(rows)]
    if mutation == "arity_drop":
        lines[r][0] = ",".join(rows[r][:-1])
    elif mutation == "garbage":
        lines[r][0] = ",".join([*rows[r][:c], "abc", *rows[r][c + 1:]])
    elif mutation == "span":
        # The field opens a quote on one line and closes it on the next;
        # no field after it is quoted.
        tail = [token.strip('"') for token in rows[r][c + 1:]]
        ending = draw(st.sampled_from(_ENDINGS))
        first = ",".join([*rows[r][:c], '"' + rows[r][c].strip('"')])
        lines[r: r + 1] = [[first, ending, "open"],
                           ['"' + "".join("," + t for t in tail), lines[r][1], "close"]]
    for at, blank in draw(st.lists(st.tuples(st.integers(0, len(lines)), st.sampled_from(_BLANKS)),
                                   max_size=3)):
        lines.insert(at, [blank, draw(st.sampled_from(_ENDINGS)), None])
    head_ending = draw(st.sampled_from(_ENDINGS))
    for before, line in zip([head_ending] + [e for _, e, _ in lines], lines):
        if before == "\r" and not line[0] and line[1][0] == "\n":
            line[0] = " "  # or the two endings would make one CRLF

    expected = None
    if mutation == "span":
        # The reader numbers the lines after the header from 2; the count
        # check names the opening line, or the closing one when the open
        # field is the last.
        marks = [mark for _, _, mark in lines]
        got = c + 1 if c + 1 != width else 1
        at = marks.index("open" if c + 1 != width else "close") + 2
        expected = f"line {at}: expected {width} fields, got {got}"

    if quotes and draw(st.booleans()):  # a header field quoted across a line ending
        header[-1] = f'"{header[-1]}{draw(st.sampled_from(_ENDINGS))}"'
    head = ",".join(header) + head_ending
    body = "".join(text + ending for text, ending, _ in lines)
    if draw(st.booleans()):
        body = body[: -len(lines[-1][1])]
    if draw(st.booleans()):
        head = "\ufeff" + head
    return head + body, body, expected


def _outcome(loader, source):
    """What ``loader`` makes of ``source``: arrays and ids, or the error class and message."""
    try:
        got = loader(source)
    except DataError as exc:
        return type(exc), str(exc)
    if loader is load_experiment_csv:
        return got.pair_ids, [a.tobytes() for a in (got.x, got.z, got.y)]
    return (), [a.tobytes() for a in (got.r_t, got.r_c)]


def _reference(loader, text, body):
    """``loader``'s outcome with ``read_pairs_oracle`` fed the lines io.StringIO cuts from ``body``.

    The separator controls are read as spaces, as numpy's reader reads them.
    """
    lines = list(io.StringIO(body.translate(_SEPARATOR_CONTROLS), newline=""))

    def oracle(_, width, flags=()):
        return read_pairs_oracle(lines, width, flags)

    with mock.patch.object(experiment_model, "read_pairs", oracle), \
            mock.patch.object(dgp, "read_pairs", oracle):
        return _outcome(loader, io.StringIO(text.removeprefix("\ufeff"), newline=""))


_LOADERS = {"experiment": load_experiment_csv, "science": load_science_table}


@pytest.mark.parametrize("kind", sorted(_LOADERS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_stream_splits_as_stringio(kind, data):
    text, body, expected = data.draw(split_files(kind))
    loader = _LOADERS[kind]
    want = (MalformedRow, expected) if expected else _reference(loader, text, body)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_bytes(text.encode())
        assert _outcome(loader, path) == want
        assert _outcome(loader, str(path)) == want
    for newline in ("", None):
        stream = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8-sig",
                                  newline=newline)
        assert _outcome(loader, stream) == want, newline


@pytest.mark.parametrize("kind", sorted(_LOADERS))
def test_a_quoted_field_across_lines_is_refused_not_a_traceback(kind):
    # numpy's reader joins the two lines into one row it can read; the
    # reader used to fail reshaping its rows with a bare ValueError.
    header, first, second = {
        "experiment": ("pair,unit,z,y,x1", "1,1,1,2.5,", "1,2,0,1.0,0.25"),
        "science": ("pair,unit,r_t,r_c", "1,1,2.5,", "1,2,1.0,0.25"),
    }[kind]
    text = f'{header}\n{first}"0.5\n"\n{second}\n'
    with pytest.raises(MalformedRow, match="^line 3: expected [45] fields, got 1$"):
        _LOADERS[kind](io.StringIO(text))


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_a_line_ending_inside_an_open_quote_stays_in_the_token(ending, tmp_path):
    # A quote left open swallows the line's ending into the token a message
    # quotes, so a quoted text keeps each line's own ending.
    rows = ['pair,unit,z,y,x1', '1,1,1,2.5,"abc', '"2",1,0,1.0,0.5', '1,2,0,1.0,0.25',
            '2,2,1,1.0,0.25']
    path = tmp_path / "open_quote.csv"
    path.write_bytes("".join(row + ending for row in rows).encode())
    message = f"line 2: cannot parse {'abc' + ending!r} as a number"
    with pytest.raises(MalformedRow, match=f"^{re.escape(message)}$"):
        load_experiment_csv(path)
