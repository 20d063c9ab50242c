import io
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paired_adjust import (
    DesignMatrices,
    MalformedRow,
    NonFiniteTransform,
    NumericalError,
    PairedExperiment,
    PairViolation,
    PotentialOutcomeSample,
    RankDeficient,
    TooFewPairs,
    TransformSpec,
    build_design,
    estimate_r2,
    load_experiment_csv,
    validate_design,
    write_experiment_csv,
)
from paired_adjust.errors import BadArgument, DataError, DimensionMismatch
from paired_adjust.kernel import RESPONSE_LIMIT

from conftest import first_appearance, shuffled_pairs

MINIMAL_CSV = """pair,unit,z,y,x1
1,1,1,2.0,0.5
1,2,0,1.0,0.25
2,1,0,3.0,-1.0
2,2,1,4.0,0.75
"""


# (mangle, error, message) for files with one defect each. The ids are
# the ones these cases had when they were parametrized by mangle alone.
MALFORMED_CASES = [
    (lambda t: t.replace("1,1,1,2.0,0.5", "1,1,1,2.0"),  # arity
     MalformedRow, "line 2: expected 5 fields, got 4"),
    (lambda t: t.replace("1,1,1,2.0,0.5", "1,1,1,abc,0.5"),  # parse
     MalformedRow, "line 2: cannot parse 'abc' as a number"),
    (lambda t: t.replace("1,1,1,2.0,0.5", "1,1,1,nan,0.5"),  # non-finite
     MalformedRow, "line 2: non-finite value 'nan'"),
    (lambda t: t.replace("1,1,1,2.0,0.5", "1,1,1,2.0,inf"),  # non-finite x
     MalformedRow, "line 2: non-finite value 'inf'"),
    (lambda t: t.replace("1,1,1,2.0,0.5", "1,1,1,2.0,-inf"),  # non-finite x
     MalformedRow, "line 2: non-finite value '-inf'"),
    (lambda t: t.replace("1,1,1,2.0,0.5", "1,3,1,2.0,0.5"),  # unit range
     MalformedRow, "line 2: unit must be 1 or 2, got 3"),
    (lambda t: t.replace("1,1,1,2.0,0.5", "1,1,2,2.0,0.5"),  # z range
     MalformedRow, "line 2: z must be 0 or 1, got 2"),
    (lambda t: t.replace("pair,unit,z,y,x1", "pair,unit,y,z,x1"),  # header
     MalformedRow, "header must start with pair,unit,z,y, got ['pair', 'unit', 'y', 'z']"),
    (lambda t: "",  # empty
     MalformedRow, "empty file"),
    (lambda t: t.replace("2,1,0,3.0,-1.0", "2,x,0,3.0,-1.0"),  # unit parse
     MalformedRow, "line 4: cannot parse 'x' as an integer"),
    (lambda t: t.replace("2,1,0,3.0,-1.0", "2.0,1,0,3.0,-1.0"),  # pair parse
     MalformedRow, "line 4: cannot parse '2.0' as an integer"),
    (lambda t: t.replace("2,1,0,3.0,-1.0", "2,1,no,3.0,-1.0"),  # z parse
     MalformedRow, "line 4: cannot parse 'no' as an integer"),
    (lambda t: t.replace("2,1,0,3.0,-1.0", "2,1,0,3.0,-1.0,9"),  # arity, later line
     MalformedRow, "line 4: expected 5 fields, got 6"),
    (lambda t: t.replace("2,1,0,3.0,-1.0", "2,1,0,3.0,1e400"),  # overflow
     MalformedRow, "line 4: non-finite value '1e400'"),
    (lambda t: t.replace("2,1,0,3.0,-1.0", "2,0,0,3.0,-1.0"),  # unit range, later line
     MalformedRow, "line 4: unit must be 1 or 2, got 0"),
    (lambda t: t.replace("2,1,0,3.0,-1.0", "2,1,-1,3.0,-1.0"),  # z range, later line
     MalformedRow, "line 4: z must be 0 or 1, got -1"),
    (lambda t: t.replace("2,1,0,3.0,-1.0", "2,99999999999999999999,0,3.0,-1.0"),  # beyond int64
     MalformedRow, "line 4: cannot parse '99999999999999999999' as an integer"),
    (lambda t: t.replace("1,2,0,1.0,0.25", "1,2,0,1.0,"),  # missing value
     MalformedRow, "line 3: cannot parse '' as a number"),
    (lambda t: "pair,unit,z,y,x1\n\n",  # header and blank lines only
     MalformedRow, "no data rows"),
]

PAIR_VIOLATION_CASES = [
    (lambda t: t.replace("1,2,0,1.0,0.25\n", ""),  # lone unit
     PairViolation, "pair 1: needs exactly units 1 and 2"),
    (lambda t: t.replace("1,2,0,1.0,0.25", "1,1,0,1.0,0.25"),  # dup unit
     PairViolation, "pair 1: unit 1 appears twice"),
    (lambda t: t.replace("1,2,0,1.0,0.25", "1,2,1,1.0,0.25"),  # z sum
     PairViolation, "pair 1: z must sum to 1 across units"),
]


def random_experiment(rng, n=6, p=2):
    x = rng.standard_normal((n, 2, p))
    z1 = rng.integers(0, 2, size=n)
    z = np.stack([z1, 1 - z1], axis=1)
    y = rng.standard_normal((n, 2))
    return PairedExperiment(x=x, z=z, y=y)


class TestTransformSpec:
    def test_output_dims_known_before_data(self):
        assert TransformSpec.identity().output_dim(4) == 4
        assert TransformSpec.power(2).output_dim(1) == 2
        assert TransformSpec.power(3).output_dim(4) == 12
        assert TransformSpec.log().output_dim(2) == 2
        assert TransformSpec.select([1, 3]).output_dim(4) == 2
        assert TransformSpec.select([]).output_dim(4) == 0

    def test_power_expands_degree_major(self):
        x = np.array([[2.0], [3.0]])
        out = TransformSpec.power(2).apply(x)
        npt.assert_allclose(out, [[2.0, 4.0], [3.0, 9.0]])

    def test_select_picks_one_based_columns(self):
        x = np.arange(8.0).reshape(2, 4)
        out = TransformSpec.select([4, 1]).apply(x)
        npt.assert_allclose(out, x[:, [3, 0]])

    def test_log_of_nonpositive_rejected(self):
        with pytest.raises(NonFiniteTransform):
            TransformSpec.log().apply(np.array([[1.0, -2.0]]))

    def test_exp_overflow_rejected(self):
        with pytest.raises(NonFiniteTransform):
            TransformSpec.exp().apply(np.array([[1000.0]]))

    def test_dict_round_trip(self):
        for spec in (
            TransformSpec.identity(),
            TransformSpec.power(3),
            TransformSpec.log(),
            TransformSpec.select([2, 4]),
        ):
            assert TransformSpec.from_dict(spec.to_dict()) == spec

    def test_serialized_form(self):
        assert TransformSpec.power(2).to_dict() == {"kind": "power", "degree": 2}
        assert TransformSpec.identity().to_dict() == {"kind": "identity"}

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            TransformSpec("power")
        with pytest.raises(ValueError):
            TransformSpec.power(0)
        with pytest.raises(ValueError):
            TransformSpec.select([1, 1])
        with pytest.raises(ValueError):
            TransformSpec("cubic")
        with pytest.raises(ValueError):
            TransformSpec.select([5]).output_dim(4)


class TestLoadExperimentCsv:
    def test_smallest_valid_file(self):
        exp = load_experiment_csv(io.StringIO(MINIMAL_CSV))
        assert exp.n == 2
        assert exp.p == 1
        assert exp.pair_ids == (1, 2)
        npt.assert_array_equal(exp.z, [[1, 0], [0, 1]])
        npt.assert_allclose(exp.y, [[2.0, 1.0], [3.0, 4.0]])

    def test_both_units_treated_rejected(self):
        text = MINIMAL_CSV.replace("2,1,0,3.0,-1.0", "2,1,1,3.0,-1.0").replace(
            "2,2,1,4.0,0.75", "2,2,1,4.0,0.75"
        )
        with pytest.raises(PairViolation):
            load_experiment_csv(io.StringIO(text))

    def test_pair_order_is_first_appearance_and_units_sorted(self):
        text = (
            "pair,unit,z,y,x1\n"
            "7,2,0,1.0,0.1\n"
            "3,1,1,2.0,0.2\n"
            "7,1,1,3.0,0.3\n"
            "3,2,0,4.0,0.4\n"
        )
        exp = load_experiment_csv(io.StringIO(text))
        assert exp.pair_ids == (7, 3)
        # pair 7 row: unit 1 has y=3.0 even though it appeared second
        npt.assert_allclose(exp.y[0], [3.0, 1.0])

    @pytest.mark.parametrize(
        "mangle, error, match",
        MALFORMED_CASES,
        ids=[f"<lambda>{i}" for i in range(len(MALFORMED_CASES))],
    )
    def test_malformed_inputs_rejected(self, mangle, error, match):
        with pytest.raises(error, match=f"^{re.escape(match)}$"):
            load_experiment_csv(io.StringIO(mangle(MINIMAL_CSV)))

    @pytest.mark.parametrize(
        "mangle, error, match",
        PAIR_VIOLATION_CASES,
        ids=[f"<lambda>{i}" for i in range(len(PAIR_VIOLATION_CASES))],
    )
    def test_pair_violations_rejected(self, mangle, error, match):
        with pytest.raises(error, match=f"^{re.escape(match)}$"):
            load_experiment_csv(io.StringIO(mangle(MINIMAL_CSV)))

    @pytest.mark.parametrize(
        "edits, match",
        [
            ([("1,1,1,2.0,0.5", "1,1,1,nan,0.5"), ("2,2,1,4.0,0.75", "2,2,1,4.0")],
             "line 5: expected 5 fields, got 4"),
            ([("1,1,1,2.0,0.5", "1,1,1,abc,0.5"), ("2,1,0,3.0,-1.0", "2,5,0,3.0,-1.0")],
             "line 4: unit must be 1 or 2, got 5"),
            ([("1,2,0,1.0,0.25", "1,1,0,1.0,0.25"), ("2,1,0,3.0,-1.0", "2,1,0,3.0,inf")],
             "line 4: non-finite value 'inf'"),
            ([("1,1,1,2.0,0.5", "1,1,1,inf,0.5"), ("2,1,0,3.0,-1.0", "2,5,0,3.0,-1.0")],
             "line 4: unit must be 1 or 2, got 5"),
        ],
        ids=["count-before-finite", "range-before-number", "finite-before-duplicate",
             "range-before-finite"],
    )
    def test_check_stage_decides_which_defect_is_named(self, edits, match):
        text = MINIMAL_CSV
        for old, new in edits:
            text = text.replace(old, new)
        with pytest.raises(MalformedRow, match=f"^{re.escape(match)}$"):
            load_experiment_csv(io.StringIO(text))

    def test_write_then_load_round_trips_exactly(self, rng):
        exp = random_experiment(rng, n=25, p=4)
        buf = io.StringIO()
        write_experiment_csv(exp, buf)
        back = load_experiment_csv(io.StringIO(buf.getvalue()))
        npt.assert_array_equal(back.x, exp.x)
        npt.assert_array_equal(back.z, exp.z)
        npt.assert_array_equal(back.y, exp.y)
        assert back.pair_ids == exp.pair_ids

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(shuffled_pairs(fields=3))
    def test_any_row_order_loads_the_same_pairs(self, drawn):
        id_texts, numbers, treated, layout = drawn
        lines = ["pair,unit,z,y,x1,x2"]
        for line in layout:
            if isinstance(line, str):
                lines.append(line)
                continue
            i, j = line
            z = int(treated[i] == j)
            values = [repr(float(v)) for v in numbers[i, j]]
            lines.append(",".join([id_texts[i], str(j + 1), str(z), *values]))
        text = "\n".join(lines) + "\n"
        if np.abs(numbers[..., 0]).max() > RESPONSE_LIMIT:
            with pytest.raises(DataError, match="exceeds the largest the estimators take"):
                load_experiment_csv(io.StringIO(text))
            return
        exp = load_experiment_csv(io.StringIO(text))
        order = first_appearance(layout)
        assert exp.pair_ids == tuple(int(id_texts[i]) for i in order)
        z = (np.array(treated)[order, None] == np.arange(2)).astype(int)
        npt.assert_array_equal(exp.z, z)
        assert exp.y.tobytes() == np.ascontiguousarray(numbers[order, :, 0]).tobytes()
        assert exp.x.tobytes() == np.ascontiguousarray(numbers[order, :, 1:]).tobytes()

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "exp.csv"
        path.write_bytes(b"\xef\xbb\xbf" + MINIMAL_CSV.encode())
        exp = load_experiment_csv(path)
        assert exp.pair_ids == (1, 2)
        npt.assert_array_equal(exp.y, [[2.0, 1.0], [3.0, 4.0]])

    def test_ragged_covariates_rejected_by_constructor(self, rng):
        with pytest.raises(DimensionMismatch):
            PairedExperiment(
                x=np.zeros((3, 2)), z=np.tile([1, 0], (3, 1)), y=np.zeros((3, 2))
            )


class TestBuildDesign:
    def test_identical_covariates_give_zero_d_row(self, rng):
        exp = random_experiment(rng, n=8, p=2)
        x = exp.x.copy()
        x[0, 1] = x[0, 0]
        exp = PairedExperiment(x=x, z=exp.z, y=exp.y)
        dm = build_design(exp, TransformSpec.identity(), TransformSpec.identity())
        npt.assert_array_equal(dm.d[0], 0.0)

    def test_power_two_single_covariate(self, rng):
        exp = random_experiment(rng, n=8, p=1)
        dm = build_design(exp, TransformSpec.power(2), TransformSpec.identity())
        assert dm.k_d == 2
        diff = exp.x[:, 0, 0] - exp.x[:, 1, 0]
        diff_sq = exp.x[:, 0, 0] ** 2 - exp.x[:, 1, 0] ** 2
        npt.assert_allclose(dm.d[:, 0], diff)
        npt.assert_allclose(dm.d[:, 1], diff_sq)

    def test_centering_arithmetic(self):
        # pair averages of x are (1, 2, 3); the centered column is (-1, 0, 1)
        x = np.array([[[0.5], [1.5]], [[1.5], [2.5]], [[2.5], [3.5]]])
        z = np.tile([1, 0], (3, 1))
        exp = PairedExperiment(x=x, z=z, y=np.zeros((3, 2)))
        dm = build_design(exp, TransformSpec.select([]), TransformSpec.identity())
        npt.assert_allclose(dm.m[:, 0], [-1.0, 0.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("g", [TransformSpec.identity(), TransformSpec.log()], ids=["identity", "log"])
    def test_pair_average_constant_up_to_rounding_is_zero(self, rng, g):
        # Column 1 pairs b with 10 - b (identity) or a with 1/a (log): its
        # pair averages are constant but for rounding. Column 2 has a
        # spread of about 1e-9 of its size, which is data and must survive.
        if g.kind == "identity":
            b = 3.3 * np.random.default_rng(3).standard_normal(12) + 0.1
            first = np.stack([b, 10.0 - b], axis=1)
        else:
            a = np.exp(3.0 * rng.standard_normal(12))
            first = np.stack([a, 1.0 / a], axis=1)
        x = np.stack([first, 1e3 + 1e-6 * rng.standard_normal((12, 2))], axis=2)
        exp = PairedExperiment(x=x, z=np.tile([1, 0], (12, 1)), y=np.zeros((12, 2)))
        gx = g.apply(x)
        centered = (gx[:, 0] + gx[:, 1]) / 2.0
        centered -= centered.mean(axis=0)
        centered -= centered.mean(axis=0)
        assert (centered != 0.0).any(axis=0).all()
        dm = build_design(exp, TransformSpec.select([]), g)
        npt.assert_array_equal(dm.m[:, 0], 0.0)
        npt.assert_array_equal(dm.m[:, 1], centered[:, 1])

    def test_too_few_pairs(self, rng):
        exp = random_experiment(rng, n=5, p=4)
        with pytest.raises(TooFewPairs):
            build_design(exp, TransformSpec.identity(), TransformSpec.identity())

    def test_nonfinite_transform_surfaces(self, rng):
        exp = random_experiment(rng, n=8, p=1)  # standard normals: some negative
        with pytest.raises(NonFiniteTransform):
            build_design(exp, TransformSpec.log(), TransformSpec.identity())

    def test_v_and_y_conventions(self, rng):
        exp = random_experiment(rng, n=10, p=2)
        dm = build_design(exp, TransformSpec.identity(), TransformSpec.identity())
        npt.assert_array_equal(dm.v, 2.0 * exp.z[:, 0] - 1.0)
        treated = np.where(exp.z[:, 0] == 1, exp.y[:, 0], exp.y[:, 1])
        control = np.where(exp.z[:, 0] == 1, exp.y[:, 1], exp.y[:, 0])
        npt.assert_allclose(dm.y, treated - control)
        npt.assert_array_equal(dm.vd, dm.v[:, None] * dm.d)

    def test_m_columns_sum_to_zero_even_at_large_scale(self, rng):
        x = 400.0 + 10.0 * rng.standard_normal((50, 2, 3))
        z1 = rng.integers(0, 2, size=50)
        exp = PairedExperiment(
            x=x, z=np.stack([z1, 1 - z1], axis=1), y=rng.standard_normal((50, 2))
        )
        dm = build_design(exp, TransformSpec.identity(), TransformSpec.identity())
        assert np.abs(dm.m.sum(axis=0)).max() <= 1e-10 * dm.n

    def test_within_pair_listing_order_is_irrelevant(self, rng):
        exp = random_experiment(rng, n=12, p=2)
        dm = build_design(exp, TransformSpec.identity(), TransformSpec.identity())
        flipped = PairedExperiment(
            x=exp.x[:, ::-1], z=exp.z[:, ::-1], y=exp.y[:, ::-1]
        )
        dm2 = build_design(flipped, TransformSpec.identity(), TransformSpec.identity())
        npt.assert_array_equal(dm2.d, -dm.d)
        npt.assert_array_equal(dm2.v, -dm.v)
        npt.assert_array_equal(dm2.vd, dm.vd)
        npt.assert_array_equal(dm2.y, dm.y)
        npt.assert_array_equal(dm2.m, dm.m)
        r2a = estimate_r2(dm)
        r2b = estimate_r2(dm2)
        assert r2a.tau_hat == r2b.tau_hat
        assert r2a.s2 == r2b.s2

    def test_deterministic_rebuild(self, rng):
        exp = random_experiment(rng, n=12, p=3)
        f, g = TransformSpec.power(2), TransformSpec.log()
        exp = PairedExperiment(x=np.abs(exp.x) + 0.1, z=exp.z, y=exp.y)
        dm1 = build_design(exp, f, g)
        dm2 = build_design(exp, f, g)
        npt.assert_array_equal(dm1.d, dm2.d)
        npt.assert_array_equal(dm1.m, dm2.m)


class TestDesignMatricesType:
    def test_uncentered_m_rejected(self, rng):
        with pytest.raises(DimensionMismatch):
            DesignMatrices(
                d=rng.standard_normal((8, 1)),
                m=np.ones((8, 1)),
                v=np.ones(8),
                y=rng.standard_normal(8),
            )

    def test_bad_signs_rejected(self, rng):
        with pytest.raises(PairViolation):
            DesignMatrices(
                d=rng.standard_normal((8, 1)),
                m=np.zeros((8, 0)),
                v=np.full(8, 0.5),
                y=rng.standard_normal(8),
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("block", ["d", "m", "y"])
    def test_non_finite_block_refused_by_name(self, rng, block, value):
        # Before the centering check, so a non-finite m is not called uncentered.
        m = rng.standard_normal((8, 1))
        arrays = dict(d=rng.standard_normal((8, 1)), m=m - m.mean(axis=0),
                      v=np.ones(8), y=rng.standard_normal(8))
        arrays[block].flat[3] = value
        with pytest.raises(DataError, match=f"^{block} holds a non-finite value$"):
            DesignMatrices(**arrays)

    def test_size_constraint_enforced(self, rng):
        m = rng.standard_normal((4, 1))
        with pytest.raises(TooFewPairs):
            DesignMatrices(
                d=rng.standard_normal((4, 2)),
                m=m - m.mean(axis=0),
                v=np.ones(4),
                y=rng.standard_normal(4),
            )


def _instances(rng):
    """(constructor, its array arguments) for each frozen-array type, from fresh C-contiguous arrays."""
    n = 8
    m = rng.standard_normal((n, 1))
    z = np.zeros((n, 2), dtype=int)
    z[:, 0] = 1
    return [
        (PotentialOutcomeSample, dict(r_t=rng.standard_normal((n, 2)), r_c=rng.standard_normal((n, 2)),
                                      w=rng.standard_normal((n, 2, 4)), x=rng.standard_normal((n, 2, 4)))),
        (PairedExperiment, dict(x=rng.standard_normal((n, 2, 3)), z=z, y=rng.standard_normal((n, 2)))),
        (DesignMatrices, dict(d=rng.standard_normal((n, 2)), m=m - m.mean(axis=0),
                              v=np.where(rng.random(n) < 0.5, -1.0, 1.0), y=rng.standard_normal(n))),
    ]


@pytest.mark.parametrize("kind", range(3), ids=["PotentialOutcomeSample", "PairedExperiment",
                                                 "DesignMatrices"])
def test_instances_freeze_copies_not_the_callers_arrays(rng, kind):
    cls, arrays = _instances(rng)[kind]
    inst = cls(**arrays)
    for name, given in arrays.items():
        held = getattr(inst, name)
        assert given.flags.writeable, name
        assert not held.flags.writeable, name
        before = held.copy()
        given[...] = 0 if given.dtype == int else 7.0
        assert np.array_equal(held, before), name


@pytest.mark.parametrize("ids", [np.array([4, 5, 6]), np.array([4.0, 5.0, 6.0]), [4, 5, 6],
                                 range(4, 7)], ids=["int array", "float array", "list", "range"])
def test_pair_ids_are_any_one_dimensional_sequence_of_integers(rng, ids):
    exp = random_experiment(rng, n=3)
    got = PairedExperiment(exp.x, exp.z, exp.y, pair_ids=ids).pair_ids
    assert got == (4, 5, 6) and all(type(i) is int for i in got)
    with pytest.raises(BadArgument, match="pair_ids"):
        PairedExperiment(exp.x, exp.z, exp.y, pair_ids=np.asarray(ids)[:, None])


@st.composite
def near_collinear_designs(draw):
    """Designs with one column 10^-8..10^-2 away from the span of the others.

    A vd column is made near a combination of the ones vector and the
    other vd columns, an m column near a combination of the other m
    columns (which keeps it centered). The vd columns then get units
    from 10^-9 to 10^9, the m columns from 10^-9 to 1, so that the m
    block stays centered to the tolerance of DesignMatrices.
    """
    k_d = draw(st.integers(0, 3))
    k_m = draw(st.integers(0 if k_d else 1, 3))
    n = draw(st.integers(k_d + k_m + 3, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = 2.0 * rng.integers(0, 2, size=n) - 1.0
    vd = rng.standard_normal((n, k_d))
    m = rng.standard_normal((n, k_m))
    m -= m.mean(axis=0)
    gap = 10.0 ** draw(st.floats(-8.0, -2.0))
    target = draw(st.integers(0, k_d + k_m - 1))
    noise = rng.standard_normal(n)
    if target < k_d:
        others = np.delete(vd, target, axis=1)
        vd[:, target] = rng.standard_normal() + others @ rng.standard_normal(k_d - 1) + gap * noise
    else:
        j = target - k_d
        others = np.delete(m, j, axis=1)
        m[:, j] = others @ rng.standard_normal(k_m - 1) + gap * (noise - noise.mean())
    vd *= 10.0 ** np.array(draw(st.lists(st.floats(-9.0, 9.0), min_size=k_d, max_size=k_d)))
    m *= 10.0 ** np.array(draw(st.lists(st.floats(-9.0, 0.0), min_size=k_m, max_size=k_m)))
    return DesignMatrices(d=v[:, None] * vd, m=m, v=v, y=rng.standard_normal(n))


class TestValidateDesign:
    def test_duplicated_column_rejected(self, rng):
        d = rng.standard_normal((10, 1))
        d = np.hstack([d, d])
        m = rng.standard_normal((10, 1))
        dm = DesignMatrices(
            d=d, m=m - m.mean(axis=0), v=np.ones(10), y=rng.standard_normal(10)
        )
        with pytest.raises(RankDeficient):
            validate_design(dm)

    def test_constant_pair_average_column_rejected(self, rng):
        x = rng.standard_normal((10, 2, 2))
        x[:, :, 1] = 5.0  # constant across all units: centers to zero
        z1 = rng.integers(0, 2, size=10)
        exp = PairedExperiment(
            x=x, z=np.stack([z1, 1 - z1], axis=1), y=rng.standard_normal((10, 2))
        )
        dm = build_design(exp, TransformSpec.select([1]), TransformSpec.identity())
        with pytest.raises(RankDeficient, match="column m:x2 "):
            validate_design(dm)

    def test_well_conditioned_design_matches_svd_oracle(self, rng):
        dm = build_design(
            random_experiment(rng, n=30, p=3),
            TransformSpec.identity(),
            TransformSpec.identity(),
        )
        diag = validate_design(dm)
        assert diag.rank == 1 + dm.k_d + dm.k_m
        assert not diag.deficient
        full = np.column_stack([np.ones(dm.n), dm.vd, dm.m])
        sv = np.linalg.svd(full, compute_uv=False)
        oracle_rank = int((sv > 1e-10 * sv[0]).sum())
        assert diag.rank == oracle_rank
        assert len(diag.column_labels) == diag.expected_rank
        assert diag.column_labels[0] == "vd:x1" and diag.column_labels[-1] == "intercept"
        assert ((diag.pivot_ratios > 1e-10) & (diag.pivot_ratios <= 1.0 + 1e-12)).all()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(near_collinear_designs())
    def test_rejects_exactly_what_the_r2_fit_rejects(self, dm):
        try:
            validate_design(dm)
        except RankDeficient:
            with pytest.raises(NumericalError):
                estimate_r2(dm)
        else:
            estimate_r2(dm)
