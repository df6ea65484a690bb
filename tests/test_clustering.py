import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzysumm.clustering import (
    ClusterModel,
    bind_labels,
    build_context,
    cluster_attribute,
    dataset_to_context,
    encode_dataset,
    encode_value,
    fcm,
    load_dataset_csv,
    needs_clustering,
    parse_cell,
)
from fuzzysumm.domain import (
    NULL,
    UNDEFINED,
    UNKNOWN,
    AttributeSpec,
    Dataset,
    FuzzyValue,
    LinguisticLabel,
    load_schema,
)
from fuzzysumm.errors import ClusteringError, ConfigurationError, DataError

from conftest import FIXTURES, reference_fcm


def plain_attr(name="Age", labels=("Young", "Adult", "Old"), ftype=1):
    return AttributeSpec(
        name, ftype, tuple(LinguisticLabel(n, i) for i, n in enumerate(labels))
    )


def tiny_dataset():
    age = plain_attr()
    rows = {
        "t1": {"Age": FuzzyValue.crisp(25.0)},
        "t2": {"Age": FuzzyValue.trapezoid(10, 20, 30, 40)},
        "t3": {"Age": FuzzyValue.label("Adult")},
        "t4": {"Age": UNKNOWN},
        "t5": {"Age": UNDEFINED},
        "t6": {"Age": NULL},
    }
    return Dataset((age,), tuple(rows), rows), age


class TestEncoding:
    def test_crisp_passes_through(self):
        assert encode_value(FuzzyValue.crisp(25.0)) == 25.0

    def test_trapezoid_centroid(self):
        # (10 + 20 + 30 + 40) / 4 = 25
        assert encode_value(FuzzyValue.trapezoid(10, 20, 30, 40)) == 25.0

    def test_column_encoding(self):
        ds, age = tiny_dataset()
        column = encode_dataset(ds, age)
        assert column == {"t1": 25.0, "t2": 25.0, "t3": 1.0}  # Adult has index 1


class TestFcm:
    def test_recovers_three_well_separated_groups(self):
        values = [(f"t{i}", x) for i, x in enumerate([0.0, 0.1, 5.0, 5.1, 10.0, 10.1])]
        centers, matrix = fcm(values, c=3, seed=7)
        oracle = reference_fcm([x for _, x in values], [0.0, 5.0, 10.0])
        assert np.allclose(centers, oracle, atol=1e-4)
        assert np.allclose(centers, [0.05, 5.05, 10.05], atol=0.5)  # 5% of the span

    def test_point_at_center_gets_crisp_membership(self):
        # symmetric two-value data converges with centers exactly on the data
        values = [("a", -1.0), ("b", 1.0), ("c", -1.0), ("d", 1.0)]
        centers, matrix = fcm(values, c=2, seed=0)
        assert centers == (-1.0, 1.0)
        assert matrix.rows["a"] == (1.0, 0.0)
        assert matrix.rows["b"] == (0.0, 1.0)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        values = [(f"t{i}", float(v)) for i, v in enumerate(rng.uniform(0, 100, 40))]
        _, matrix = fcm(values, c=4, seed=1)
        for row in matrix.rows.values():
            assert sum(row) == pytest.approx(1.0, abs=1e-9)
            assert all(0.0 <= v <= 1.0 for v in row)

    def test_objective_never_increases(self):
        rng = np.random.default_rng(11)
        values = [(f"t{i}", float(v)) for i, v in enumerate(rng.normal(0, 5, 60))]
        _, matrix = fcm(values, c=3, seed=5)
        trace = matrix.objective_trace
        assert len(trace) >= 1
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier + 1e-9

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(2)
        values = [(f"t{i}", float(v)) for i, v in enumerate(rng.uniform(0, 10, 25))]
        first = fcm(values, c=3, seed=42)
        second = fcm(values, c=3, seed=42)
        assert first[0] == second[0]
        assert first[1].rows == second[1].rows

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        values = [(f"t{i}", float(v)) for i, v in enumerate(rng.uniform(0, 10, 30))]
        shuffled = list(values)
        rng.shuffle(shuffled)
        c_a, m_a = fcm(values, c=3, seed=9)
        c_b, m_b = fcm(shuffled, c=3, seed=9)
        assert np.allclose(c_a, c_b, atol=1e-9)
        for tid in m_a.rows:
            assert m_a.rows[tid] == m_b.rows[tid]

    def test_too_few_distinct_values(self):
        with pytest.raises(ClusteringError):
            fcm([("a", 1.0), ("b", 1.0), ("c", 2.0)], c=3)

    def test_empty_input(self):
        with pytest.raises(ClusteringError):
            fcm([], c=2)

    def test_bad_parameters(self):
        values = [("a", 1.0), ("b", 2.0), ("c", 3.0)]
        with pytest.raises(ClusteringError):
            fcm(values, c=1)
        with pytest.raises(ClusteringError):
            fcm(values, c=2, m=1.0)

    @settings(deadline=None, max_examples=25)
    @given(
        st.lists(
            st.integers(0, 10**6).map(lambda n: n / 1000.0),
            min_size=6,
            max_size=30,
            unique=True,
        ),
        st.integers(0, 2**31 - 1),
    )
    def test_rows_stochastic_property(self, xs, seed):
        values = [(f"t{i}", x) for i, x in enumerate(xs)]
        _, matrix = fcm(values, c=3, seed=seed)
        for row in matrix.rows.values():
            assert sum(row) == pytest.approx(1.0, abs=1e-9)


class TestBindLabels:
    def test_ascending_centers_to_vocabulary_order(self):
        age = plain_attr()
        model = bind_labels(ClusterModel("Age", (22.0, 45.0, 70.0), 2.0), age)
        assert model.label_binding == ("Young", "Adult", "Old")

    def test_single_cluster_single_label(self):
        attr = plain_attr(labels=("Only",))
        model = bind_labels(ClusterModel("X", (5.0,), 2.0), attr)
        assert model.label_binding == ("Only",)

    def test_count_mismatch(self):
        attr = plain_attr(labels=("Young", "Old"))
        with pytest.raises(ConfigurationError):
            bind_labels(ClusterModel("Age", (1.0, 2.0, 3.0), 2.0), attr)


class TestContextAssembly:
    def test_numeric_fixture_gives_six_by_six(self):
        schema = load_schema(FIXTURES / "employee_schema.json")
        ds = load_dataset_csv(FIXTURES / "employee_numeric.csv", schema)
        ctx = dataset_to_context(ds, seed=0)
        assert len(ctx.objects) == 6
        assert len(ctx.attributes) == 6  # 3 Age labels + 3 Income labels
        assert all(0.0 <= v <= 1.0 for row in ctx.degrees for v in row)

    def test_label_attribute_skips_clustering(self):
        schema = load_schema(FIXTURES / "employee_data_schema.json")
        assert not needs_clustering(schema[0])  # Age holds labels (ftype 4)
        assert needs_clustering(schema[2])  # numeric background column
        ds = load_dataset_csv(FIXTURES / "employee.csv", schema)
        ctx = dataset_to_context(ds, seed=0)
        assert len(ctx.attributes) == 9
        # identity matching: t1 is Adult, so (Age, Adult) is 1 and (Age, Young) is 0
        row = ctx.degrees[ctx.objects.index("t1")]
        assert row[ctx.attributes.index(("Age", "Adult"))] == 1.0
        assert row[ctx.attributes.index(("Age", "Young"))] == 0.0

    def test_missing_value_rows(self):
        age = plain_attr()
        rows = {
            "t1": {"Age": FuzzyValue.crisp(20.0)},
            "t2": {"Age": FuzzyValue.crisp(45.0)},
            "t3": {"Age": FuzzyValue.crisp(70.0)},
            "t4": {"Age": UNKNOWN},
            "t5": {"Age": NULL},
            "t6": {"Age": UNDEFINED},
        }
        ds = Dataset((age,), tuple(rows), rows)
        model, matrix = cluster_attribute(ds, age, seed=0)
        assert matrix.rows["t4"] == (1.0, 1.0, 1.0)
        assert matrix.rows["t5"] == (0.0, 0.0, 0.0)
        assert matrix.rows["t6"] == (0.0, 0.0, 0.0)
        ctx = build_context(ds, [model], [matrix])
        assert list(ctx.degrees[ctx.objects.index("t5")]) == [0.0, 0.0, 0.0]

    def test_matrix_must_cover_all_tuples(self):
        ds, age = tiny_dataset()
        model = ClusterModel("Age", (1.0, 2.0, 3.0), 2.0, ("Young", "Adult", "Old"))
        from fuzzysumm.clustering import MembershipMatrix

        with pytest.raises(DataError):
            build_context(ds, [model], [MembershipMatrix({"t1": (1.0, 0.0, 0.0)})])


class TestCsv:
    def test_cell_syntax(self):
        assert parse_cell("25") == FuzzyValue.crisp(25.0)
        assert parse_cell("$Young") == FuzzyValue.label("Young")
        assert parse_cell("~10,20,30,40") == FuzzyValue.trapezoid(10, 20, 30, 40)
        assert parse_cell("#unknown") is UNKNOWN
        assert parse_cell("#NULL") is NULL
        assert parse_cell("") is NULL

    def test_bad_cells(self):
        with pytest.raises(DataError):
            parse_cell("~1,2,3")
        with pytest.raises(DataError):
            parse_cell("abc")

    def test_quoted_trapezoid_and_generated_ids(self, tmp_path):
        schema = (plain_attr(),)
        path = tmp_path / "d.csv"
        path.write_text('Age\n"~10,20,30,40"\n25\n#UNKNOWN\n', encoding="utf-8")
        ds = load_dataset_csv(path, schema)
        assert ds.tuple_ids == ("t1", "t2", "t3")
        assert ds.value("t1", "Age") == FuzzyValue.trapezoid(10, 20, 30, 40)

    def test_header_mismatch(self, tmp_path):
        schema = (plain_attr(),)
        path = tmp_path / "d.csv"
        path.write_text("id,Wrong\nt1,25\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_dataset_csv(path, schema)

    def test_unknown_label_reference(self, tmp_path):
        schema = (plain_attr(),)
        path = tmp_path / "d.csv"
        path.write_text("id,Age\nt1,$Ancient\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_dataset_csv(path, schema)
