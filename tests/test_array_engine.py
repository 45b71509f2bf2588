"""Tests for the array engine: schemas, storage, operators, AFL, linear algebra."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import (
    DuplicateObjectError,
    ExecutionError,
    ObjectNotFoundError,
    ParseError,
    SchemaError,
)
from repro.engines.array import ArrayEngine, ArraySchema, Attribute, Dimension, StoredArray
from repro.engines.array import linalg
from repro.engines.array import operators as ops
from repro.engines.array.aql import parse_aql


# ------------------------------------------------------------------- schema
class TestArraySchema:
    def test_dimension_validation(self):
        with pytest.raises(SchemaError):
            Dimension("i", 10, 5, 4)
        with pytest.raises(SchemaError):
            Dimension("i", 0, 5, 0)

    def test_dimension_chunking(self):
        dim = Dimension("i", 0, 99, 25)
        assert dim.length == 100
        assert dim.chunk_count == 4
        assert dim.chunk_of(0) == 0
        assert dim.chunk_of(99) == 3
        assert dim.chunk_bounds(3) == (75, 99)
        with pytest.raises(SchemaError):
            dim.chunk_of(100)

    def test_schema_invariants(self):
        dims = [Dimension("i", 0, 9, 5)]
        attrs = [Attribute("value", "float")]
        schema = ArraySchema("a", dims, attrs)
        assert schema.shape == (10,)
        assert schema.cell_count == 10
        with pytest.raises(SchemaError):
            ArraySchema("a", [], attrs)
        with pytest.raises(SchemaError):
            ArraySchema("a", dims, [])
        with pytest.raises(SchemaError):
            ArraySchema("a", dims, [Attribute("i", "float")])  # name collision

    def test_coordinate_translation_and_chunks(self):
        schema = ArraySchema(
            "a",
            [Dimension("x", 10, 19, 5), Dimension("y", 0, 9, 5)],
            [Attribute("v", "float")],
        )
        assert schema.coordinates_to_indexes((10, 0)) == (0, 0)
        assert schema.coordinates_to_indexes((19, 9)) == (9, 9)
        with pytest.raises(SchemaError):
            schema.coordinates_to_indexes((9, 0))
        chunks = list(schema.chunks())
        assert len(chunks) == 4
        assert schema.chunk_slices((1, 1)) == (slice(5, 10), slice(5, 10))


# ------------------------------------------------------------------- storage
@pytest.fixture()
def small_array() -> StoredArray:
    schema = ArraySchema(
        "waves",
        [Dimension("signal", 0, 2, 1), Dimension("sample", 0, 99, 25)],
        [Attribute("value", "float")],
    )
    array = StoredArray(schema)
    rng = np.random.default_rng(1)
    for signal in range(3):
        array.write_block("value", (signal, 0), rng.normal(signal, 0.5, size=(1, 100)))
    return array


class TestStoredArray:
    def test_cell_roundtrip(self, small_array):
        small_array.write_cell((0, 5), {"value": 42.0})
        assert small_array.read_cell((0, 5))["value"] == 42.0
        assert small_array.populated_cells == 300

    def test_empty_cell_read(self):
        schema = ArraySchema("a", [Dimension("i", 0, 3, 2)], [Attribute("v", "float")])
        array = StoredArray(schema)
        assert array.read_cell((0,)) is None

    def test_block_bounds_checked(self, small_array):
        with pytest.raises(SchemaError):
            small_array.write_block("value", (0, 95), np.ones((1, 10)))

    def test_read_block(self, small_array):
        block = small_array.read_block("value", (1, 10), (1, 19))
        assert block.shape == (1, 10)

    def test_relations_yield_coordinates_then_attributes(self, small_array):
        chunks = list(small_array.relations(128))
        assert [len(chunk) for chunk in chunks] == [128, 128, 44]
        assert chunks[0].schema.names == ["signal", "sample", "value"]
        rows = [tuple(row.values) for chunk in chunks for row in chunk]
        # Row-major order: the signal varies slowest.
        assert [row[:2] for row in rows] == [(s, i) for s in range(3) for i in range(100)]
        buffer = small_array.buffer("value")
        assert all(value == buffer[s, i] and type(value) is float for s, i, value in rows)
        whole = small_array.to_relation()
        assert [tuple(row.values) for row in whole] == rows

    def test_to_relation_of_empty_array(self):
        schema = ArraySchema("a", [Dimension("i", 0, 3, 2)], [Attribute("v", "integer")])
        relation = StoredArray(schema).to_relation()
        assert len(relation) == 0 and relation.schema.names == ["i", "v"]
        assert list(StoredArray(schema).relations(2)) == []

    def test_write_cells_repeated_coordinate_last_write_wins(self):
        schema = ArraySchema("a", [Dimension("i", 0, 9, 5)], [Attribute("v", "integer")])
        array = StoredArray(schema)
        coords = np.array([3, 1, 3, 7, 3, 1])
        array.write_cells([coords], {"v": [10, 11, 12, 13, 14, 15]})
        assert [tuple(r.values) for r in array.to_relation()] == [(1, 15), (3, 14), (7, 13)]

    def test_write_cells_keeps_nulls_and_timestamps(self):
        from datetime import datetime, timezone

        schema = ArraySchema(
            "a", [Dimension("i", 0, 2, 3)],
            [Attribute("v", "float"), Attribute("at", "timestamp"), Attribute("ok", "boolean")],
        )
        array = StoredArray(schema)
        aware = datetime(2020, 1, 1, 12, tzinfo=timezone.utc)
        array.write_cells([np.array([0, 1, 2])], {
            "v": [1.5, None, 2.5],
            "at": [aware, datetime(2021, 6, 1), None],
            "ok": [None, True, False],
        })
        assert array.buffer("at").dtype == object
        rows = [tuple(r.values) for r in array.to_relation()]
        assert rows == [
            (0, 1.5, aware, None),
            (1, None, datetime(2021, 6, 1, tzinfo=timezone.utc), True),
            (2, 2.5, None, False),
        ]
        # Without NULLs a TIMESTAMP attribute stays a float64 buffer of epoch seconds.
        plain = StoredArray(schema)
        plain.write_cells([np.array([0])], {"v": [0.0], "at": [aware], "ok": [True]})
        assert plain.buffer("at").dtype == np.float64
        assert plain.buffer("at")[0] == aware.timestamp()
        assert plain.to_relation().rows[0]["at"] == aware

    def test_write_cells_rejects_out_of_bounds(self):
        schema = ArraySchema("a", [Dimension("i", 0, 2, 3)], [Attribute("v", "float")])
        with pytest.raises(SchemaError):
            StoredArray(schema).write_cells([np.array([0, 3])], {"v": [1.0, 2.0]})

    def test_synopsis_counts_and_bounds(self, small_array):
        synopses = small_array.synopsis("value")
        assert len(synopses) == 3 * 4  # 3 signal chunks x 4 sample chunks
        total = sum(s.count for s in synopses)
        assert total == 300
        for s in synopses:
            if s.count:
                assert s.minimum <= s.mean <= s.maximum

    def test_synopsis_rejects_text_attribute(self):
        schema = ArraySchema("a", [Dimension("i", 0, 1, 1)], [Attribute("label", "text")])
        array = StoredArray(schema)
        from repro.common.errors import UnsupportedOperationError

        with pytest.raises(UnsupportedOperationError):
            array.synopsis("label")


# ------------------------------------------------------------------ operators
class TestOperators:
    def test_filter(self, small_array):
        filtered = ops.filter_array(small_array, "value", lambda buf: buf > 1.0)
        values = filtered.buffer("value")[filtered.present_mask]
        assert (values > 1.0).all()
        assert filtered.populated_cells < small_array.populated_cells

    def test_between_keeps_dimension_space(self, small_array):
        boxed = ops.between(small_array, (0, 0), (0, 9))
        assert boxed.schema.shape == small_array.schema.shape
        assert boxed.populated_cells == 10

    def test_subarray_reorigins(self, small_array):
        sub = ops.subarray(small_array, (1, 10), (2, 29))
        assert sub.schema.shape == (2, 20)
        assert sub.populated_cells == 40

    def test_apply_adds_attribute(self, small_array):
        applied = ops.apply(small_array, "scaled", "float", lambda v: v * 2.0, "value")
        assert applied.schema.has_attribute("scaled")
        np.testing.assert_allclose(
            applied.buffer("scaled"), np.asarray(small_array.buffer("value")) * 2.0
        )
        with pytest.raises(SchemaError):
            ops.apply(applied, "scaled", "float", lambda v: v, "value")

    def test_project(self, small_array):
        applied = ops.apply(small_array, "scaled", "float", lambda v: v * 2.0, "value")
        projected = ops.project(applied, ["scaled"])
        assert [a.name for a in projected.schema.attributes] == ["scaled"]

    def test_aggregate_matches_numpy(self, small_array):
        values = small_array.buffer("value")[small_array.present_mask]
        result = ops.aggregate(small_array, "value", ["count", "sum", "avg", "min", "max", "stddev"])
        assert result["count"] == values.size
        assert result["avg"] == pytest.approx(values.mean())
        assert result["stddev"] == pytest.approx(values.std(ddof=1))

    def test_aggregate_by_dimension(self, small_array):
        by_signal = ops.aggregate_by_dimension(small_array, "value", "signal", "avg")
        assert set(by_signal) == {0, 1, 2}
        # Signals were generated around means 0, 1 and 2.
        assert by_signal[0] < by_signal[1] < by_signal[2]

    def test_window_trailing_average(self):
        schema = ArraySchema("s", [Dimension("i", 0, 4, 5)], [Attribute("v", "float")])
        array = StoredArray(schema)
        array.write_block("v", (0,), np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        windowed = ops.window(array, "v", 2, "avg")
        np.testing.assert_allclose(
            windowed.buffer("avg_v"), [1.0, 1.5, 2.5, 3.5, 4.5]
        )
        maxed = ops.window(array, "v", 3, "max")
        np.testing.assert_allclose(maxed.buffer("max_v"), [1, 2, 3, 4, 5])

    def test_regrid_downsamples(self, small_array):
        coarse = ops.regrid(small_array, "value", (1, 10), "avg")
        assert coarse.schema.shape == (3, 10)
        fine = np.asarray(small_array.buffer("value"))
        np.testing.assert_allclose(
            coarse.buffer("avg_value")[0, 0], fine[0, :10].mean()
        )

    def test_cross_join_requires_same_shape(self, small_array):
        other_schema = ArraySchema("o", [Dimension("i", 0, 1, 1)], [Attribute("v", "float")])
        with pytest.raises(SchemaError):
            ops.cross_join(small_array, StoredArray(other_schema))

    def test_unknown_aggregate_rejected(self, small_array):
        from repro.common.errors import UnsupportedOperationError

        with pytest.raises(UnsupportedOperationError):
            ops.aggregate(small_array, "value", ["median"])


# ------------------------------------------------------------------------ AFL
class TestAql:
    def test_parse_simple_and_nested(self):
        call = parse_aql("aggregate(filter(waves, value > 0.5), count(value))")
        assert call.operator == "aggregate"
        assert call.source.operator == "filter"
        assert call.source.source == "waves"

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_aql("not a call")
        with pytest.raises(ParseError):
            parse_aql("filter(waves, value > 1")
        with pytest.raises(ParseError):
            parse_aql("scan(waves) trailing")


class TestArrayEngine:
    @pytest.fixture()
    def engine(self, small_array) -> ArrayEngine:
        e = ArrayEngine("scidb")
        e.register("waves", small_array)
        return e

    def test_load_numpy_and_duplicate(self, engine):
        engine.load_numpy("m", np.arange(12).reshape(3, 4))
        assert engine.array("m").schema.shape == (3, 4)
        with pytest.raises(DuplicateObjectError):
            engine.load_numpy("m", np.zeros(2), replace=False)

    def test_execute_filter_aggregate_window_regrid(self, engine):
        result = engine.execute("aggregate(waves, count(value))")
        assert result["count(value)"] == 300.0
        filtered = engine.execute("filter(waves, value > 1.0)")
        assert isinstance(filtered, StoredArray)
        grouped = engine.execute("aggregate(waves, avg(value), signal)")
        assert set(grouped) == {0, 1, 2}
        windowed = engine.execute("window(waves, value, 4, avg, sample)")
        assert windowed.schema.shape == (3, 100)
        coarse = engine.execute("regrid(waves, value, 1, 25, max)")
        assert coarse.schema.shape == (3, 4)
        boxed = engine.execute("aggregate(between(waves, 0, 0, 0, 9), count(value))")
        assert boxed["count(value)"] == 10.0

    def test_execute_apply_and_project(self, engine):
        applied = engine.execute("apply(waves, doubled, value * 2)")
        assert applied.schema.has_attribute("doubled")
        projected = engine.execute("project(waves, value)")
        assert [a.name for a in projected.schema.attributes] == ["value"]

    def test_execute_errors(self, engine):
        with pytest.raises(ObjectNotFoundError):
            engine.execute("scan(missing)")
        with pytest.raises(ExecutionError):
            engine.execute("between(waves, 0, 0)")
        with pytest.raises(ParseError):
            engine.execute("filter(waves, value >>> 3)")

    def test_export_import_roundtrip(self, engine):
        relation = engine.export_relation("waves")
        assert relation.schema.names == ["signal", "sample", "value"]
        other = ArrayEngine("copy")
        other.import_relation("waves", relation, dimensions=["signal", "sample"])
        original = engine.execute("aggregate(waves, sum(value))")["sum(value)"]
        copied = other.execute("aggregate(waves, sum(value))")["sum(value)"]
        assert copied == pytest.approx(original)

    def test_drop(self, engine):
        engine.drop_object("waves")
        assert not engine.has_object("waves")
        with pytest.raises(ObjectNotFoundError):
            engine.drop_object("waves")


# --------------------------------------------------------------------- linalg
class TestLinalg:
    def test_multiply_and_transpose(self):
        a = linalg.from_matrix("a", np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = linalg.from_matrix("b", np.eye(2))
        product = linalg.multiply(a, b)
        np.testing.assert_allclose(linalg.to_matrix(product, "value"), [[1, 2], [3, 4]])
        transposed = linalg.transpose(a)
        np.testing.assert_allclose(linalg.to_matrix(transposed, "value"), [[1, 3], [2, 4]])

    def test_covariance_and_svd(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(50, 3))
        stored = linalg.from_matrix("d", data)
        cov = linalg.to_matrix(linalg.covariance(stored), "value")
        np.testing.assert_allclose(cov, np.cov(data, rowvar=False), atol=1e-9)
        _u, s, _vt = linalg.svd(stored)
        assert (np.diff(s) <= 0).all()

    def test_power_iteration_finds_dominant_eigenvalue(self):
        matrix = np.diag([5.0, 2.0, 1.0])
        stored = linalg.from_matrix("m", matrix)
        eigenvalue, vector = linalg.power_iteration(stored)
        assert eigenvalue == pytest.approx(5.0, rel=1e-6)
        assert abs(vector[0]) == pytest.approx(1.0, rel=1e-3)

    def test_fft_magnitudes_peak_at_signal_frequency(self):
        t = np.arange(1000) / 100.0
        signal = np.sin(2 * np.pi * 5.0 * t)
        stored = linalg.from_matrix("s", signal)
        magnitudes = linalg.fft_magnitudes(stored)
        frequencies = np.fft.rfftfreq(1000, d=0.01)
        assert frequencies[int(np.argmax(magnitudes[1:])) + 1] == pytest.approx(5.0, abs=0.2)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=4, max_size=60))
def test_property_window_avg_bounded_by_extremes(values):
    """Property: a trailing-window average never exceeds the running min/max."""
    data = np.array(values, dtype=float)
    schema = ArraySchema("s", [Dimension("i", 0, len(data) - 1, max(1, len(data)))],
                         [Attribute("v", "float")])
    array = StoredArray(schema)
    array.write_block("v", (0,), data)
    windowed = ops.window(array, "v", 3, "avg").buffer("avg_v")
    assert (windowed <= data.max() + 1e-9).all()
    assert (windowed >= data.min() - 1e-9).all()
