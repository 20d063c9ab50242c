import numpy as np
import pytest
from hypothesis import strategies as st

from paired_adjust import DesignMatrices, PotentialOutcomeSample
from paired_adjust import randomization_engine as engine
from paired_adjust.randomization_engine import _StudyStreams


def make_design(rng, n, kd=2, km=2, y_scale=1.0):
    """Random full-rank design matrices for estimator tests."""
    d = rng.standard_normal((n, kd))
    m = rng.standard_normal((n, km))
    m = m - m.mean(axis=0)
    v = 2.0 * rng.integers(0, 2, size=n) - 1.0
    y = y_scale * rng.standard_normal(n)
    return DesignMatrices(d=d, m=m, v=v, y=y)


def make_sample(rng, n, effect="hetero", with_x=True):
    """Small hand-rolled science table with controllable effects.

    effect: "zero" (r_t = r_c), "constant" (r_t - r_c = 3 everywhere)
    or "hetero" (unit effects vary).
    """
    levels = rng.standard_normal((n, 2)) * 2.0
    if effect == "zero":
        tau = np.zeros((n, 2))
    elif effect == "constant":
        tau = np.full((n, 2), 3.0)
    else:
        tau = rng.standard_normal((n, 2))
    x = rng.standard_normal((n, 2, 4)) if with_x else None
    return PotentialOutcomeSample(
        r_t=levels + tau / 2.0, r_c=levels - tau / 2.0, x=x
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# Pair ids as Python ints, some at the ends of int64, the widest the reader takes.
_PAIR_IDS = st.one_of(
    st.integers(-50, 50), st.integers(2**62, 2**63 - 1), st.sampled_from([-(2**63), 2**63 - 1])
)


@st.composite
def shuffled_pairs(draw, fields):
    """Random pairs laid out as the data lines of a CSV, in any order.

    Returns ``(id_texts, numbers, treated, layout)``: the text of each
    pair's id (distinct as ints; some padded with a space), an
    (n, 2, fields) array of finite floats, which unit of each pair is
    treated, and the lines in file order, each ``(pair, unit)`` (0-based)
    or a blank-line text. Rows come in any order, so some pairs list
    unit 2 first.
    """
    ids = draw(st.lists(_PAIR_IDS, min_size=1, max_size=8, unique=True))
    n = len(ids)
    id_texts = [f" {i}" if draw(st.booleans()) else str(i) for i in ids]
    finite = st.floats(allow_nan=False, allow_infinity=False)
    numbers = np.array(draw(st.lists(finite, min_size=2 * n * fields, max_size=2 * n * fields)))
    treated = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    layout: list = draw(st.permutations([(i, j) for i in range(n) for j in range(2)]))
    blanks = st.tuples(st.integers(0, 2 * n), st.sampled_from(["", "  "]))
    for at, blank in draw(st.lists(blanks, max_size=3)):
        layout.insert(at, blank)
    return id_texts, numbers.reshape(n, 2, fields), treated, layout


def first_appearance(layout) -> list[int]:
    """Pair indices in the order ``layout`` first lists them."""
    return list(dict.fromkeys(line[0] for line in layout if isinstance(line, tuple)))


def record_sign_products(monkeypatch) -> list[tuple[range, int]]:
    """(tables, draws) of every sign product a study's kernel calls ask for, in order.

    The products are those of ``_StudyStreams.times``, so each entry is
    one part of one pass that ``kernel.sign_stats`` cut: the range of
    the call's tables and the width of the part. A patched grid budget
    that does not reach the kernel shows here as parts of the wrong
    width.
    """
    seen: list[tuple[range, int]] = []
    times = _StudyStreams.times

    def recording_times(self, columns, rows, part, out):
        times(self, columns, rows, part, out)
        assert out.shape[0] == len(range(rows.start, rows.stop))
        seen.append((range(rows.start, rows.stop), out.shape[-1]))

    monkeypatch.setattr(_StudyStreams, "times", recording_times)
    return seen


def record_study_slabs(monkeypatch) -> list[tuple[range, dict]]:
    """(indices, columns) of every slab ``run_study`` computes, in the order they end.

    At one worker that is index order; at more, sort by first index.
    """
    seen: list[tuple[range, dict]] = []
    block = engine._study_block

    def recording_block(config, idxs):
        columns = block(config, idxs)
        seen.append((idxs, columns))
        return columns

    monkeypatch.setattr(engine, "_study_block", recording_block)
    return seen
