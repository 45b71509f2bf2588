"""CAST round-trip property: relational -> array -> relational keeps every value.

Hypothesis generates relations with INTEGER, FLOAT, TEXT, BOOLEAN and
TIMESTAMP columns (heavy NULLs outside the dimension column, naive and
aware timestamps) and casts each one into the array engine and back with
every method at several chunk sizes.  The binary frame must depend only on
the rows it carries, and the columnar path must neither build ``Row``
objects nor skip the checks a row-by-row import runs.

Tier-1 runs a small fixed-seed sample; CI runs the same properties with
``--hypothesis-profile=cast-extended`` (registered in ``conftest.py``).
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConstraintViolationError, TypeMismatchError
from repro.common.schema import Column, ColumnarRelation, Relation, Row, Schema
from repro.common.serialization import BinaryCodec
from repro.core.bigdawg import BigDawg
from repro.core.cast import CastMigrator
from repro.core.catalog import BigDawgCatalog
from repro.core.shims import RelationalShim
from repro.engines.array import ArrayEngine
from repro.engines.relational import RelationalEngine

EXTENDED = settings.get_profile("cast-extended")
PROPERTY_SETTINGS = (
    EXTENDED if settings.default is EXTENDED
    else settings(max_examples=20, derandomize=True, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
)

METHODS = ("binary", "csv", "direct")
CHUNK_SIZES = (1, 7, 8192)

SCHEMA = Schema([
    Column("id", "integer"),
    Column("n", "integer"),
    Column("x", "float"),
    Column("s", "text"),
    Column("ok", "boolean"),
    Column("at", "timestamp"),
])

_ZONES = st.sampled_from([
    None, timezone.utc, timezone(timedelta(hours=5, minutes=30)), timezone(timedelta(hours=-8)),
])
_TIMESTAMPS = st.datetimes(
    min_value=datetime(1900, 1, 1), max_value=datetime(2200, 1, 1), timezones=_ZONES,
)


def _nullable(values):
    """Mostly NULL: every non-dimension column is NULL about half the time."""
    return st.one_of(st.none(), st.none(), values)


def _relations(text):
    row = st.tuples(
        _nullable(st.integers(-(2 ** 63), 2 ** 63 - 1)),
        _nullable(st.floats(allow_nan=False)),
        _nullable(text),
        _nullable(st.booleans()),
        _nullable(_TIMESTAMPS),
    )
    ids = st.lists(st.integers(-300, 300), unique=True, max_size=30)
    return ids.flatmap(lambda keys: st.lists(row, min_size=len(keys), max_size=len(keys)).map(
        lambda rows: Relation(SCHEMA, [[key, *values] for key, values in zip(keys, rows)])
    ))


_ANY_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12)
# The CSV codec renders NULL as \N and drops a bare carriage return, so the
# file path is only asked to carry text without those two.
_CSV_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"), max_size=12,
).filter(lambda text: text != "\\N")


def _normalized(value):
    """What a value reads back as: naive timestamps come back as UTC."""
    if isinstance(value, datetime) and value.tzinfo is None:
        return value.replace(tzinfo=timezone.utc)
    return value


def _sorted_rows(relation: Relation) -> list[tuple]:
    return sorted((tuple(row.values) for row in relation), key=lambda values: values[0])


def _engines(relation: Relation) -> tuple[CastMigrator, RelationalEngine, ArrayEngine]:
    catalog = BigDawgCatalog()
    postgres = RelationalEngine("postgres")
    scidb = ArrayEngine("scidb")
    catalog.register_engine(postgres, ["relational"])
    catalog.register_engine(scidb, ["array"])
    postgres.import_relation("t", relation)
    catalog.register_object("t", "postgres", "table")
    return CastMigrator(catalog), postgres, scidb


def _round_trip(relation: Relation, method: str, chunk_size: int) -> list[tuple]:
    migrator, postgres, _ = _engines(relation)
    migrator.cast("t", "scidb", method=method, chunk_size=chunk_size, target_name="arr")
    migrator.cast("arr", "postgres", method=method, chunk_size=chunk_size, target_name="back")
    back = postgres.export_relation("back")
    assert back.schema.names == SCHEMA.names and back.schema.types == SCHEMA.types
    return [tuple(row.values) for row in back]


def _assert_same(got: list[tuple], expected: list[tuple]) -> None:
    assert len(got) == len(expected)
    for got_row, expected_row in zip(got, expected):
        for got_value, expected_value in zip(got_row, expected_row):
            expected_value = _normalized(expected_value)
            assert type(got_value) is type(expected_value)
            assert got_value == expected_value


@pytest.mark.parametrize("method", METHODS)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_relational_array_relational_round_trip(method, data):
    relation = data.draw(_relations(_CSV_TEXT if method == "csv" else _ANY_TEXT))
    expected = _sorted_rows(relation)
    for chunk_size in CHUNK_SIZES:
        _assert_same(_round_trip(relation, method, chunk_size), expected)


@PROPERTY_SETTINGS
@given(_relations(_ANY_TEXT))
def test_binary_frame_depends_only_on_the_rows(relation):
    """The same rows encode to the same bytes whatever engine exported them,
    whether they sit in rows or columns, and however they were chunked."""
    ordered = Relation(SCHEMA, _sorted_rows(relation))
    migrator, postgres, scidb = _engines(ordered)
    migrator.cast("t", "scidb", method="binary", target_name="arr")
    codec = BinaryCodec()
    decoded_per_chunking = []
    for size in CHUNK_SIZES:
        from_rows = [
            codec.encode(Relation(SCHEMA, [row.values for row in ordered.rows[i : i + size]]))
            for i in range(0, len(ordered), size)
        ]
        from_table = [codec.encode(chunk) for chunk in postgres.export_chunks("t", size)]
        from_array = [codec.encode(chunk) for chunk in scidb.export_chunks("arr", size)]
        assert from_table == from_rows
        assert from_array == from_rows
        decoded_per_chunking.append(
            [tuple(row.values) for frame in from_array for row in codec.decode(frame, SCHEMA)]
        )
    assert all(rows == decoded_per_chunking[0] for rows in decoded_per_chunking)


# ------------------------------------------------------------ columnar path
@pytest.fixture()
def counters(monkeypatch):
    """Counts Row constructions and Schema.validate_row calls."""
    counts = {"rows": 0, "validate_row": 0}
    row_init, validate_row = Row.__init__, Schema.validate_row

    def counting_row_init(self, *args, **kwargs):
        counts["rows"] += 1
        row_init(self, *args, **kwargs)

    def counting_validate_row(self, values):
        counts["validate_row"] += 1
        return validate_row(self, values)

    monkeypatch.setattr(Row, "__init__", counting_row_init)
    monkeypatch.setattr(Schema, "validate_row", counting_validate_row)
    return counts


def _waveform_array(engine: ArrayEngine, rows: int = 2000) -> None:
    import numpy as np

    engine.load_numpy("waves", np.arange(rows, dtype=float).reshape(4, rows // 4))


class TestColumnarPath:
    def test_binary_cast_from_array_builds_no_rows(self, counters):
        relation = Relation(SCHEMA, [
            [i, i * 3 if i % 2 else None, i / 4, f"s{i}é" if i % 3 else None,
             i % 2 == 0, datetime(2020, 1, 1, tzinfo=timezone.utc) + timedelta(seconds=i)]
            for i in range(500)
        ])
        migrator, postgres, _ = _engines(relation)
        migrator.cast("t", "scidb", method="binary", chunk_size=64, target_name="arr")
        counters.update(rows=0, validate_row=0)
        record = migrator.cast("arr", "postgres", method="binary", chunk_size=64,
                               target_name="back")
        assert counters == {"rows": 0, "validate_row": 0}
        assert record.rows == 500 and record.chunks == 8
        assert _sorted_rows(postgres.export_relation("back")) == _sorted_rows(relation)

    def test_shim_materialization_builds_no_rows(self, counters):
        scidb = ArrayEngine("scidb")
        _waveform_array(scidb)
        scratch = RelationalEngine("scratch")
        relation = RelationalShim(scidb).fetch_relation("waves")
        scratch.import_relation("waves", relation)
        assert counters == {"rows": 0, "validate_row": 0}
        assert scratch.table_row_count("waves") == 2000

    def test_shim_query_builds_rows_only_for_its_result(self, counters):
        bigdawg = BigDawg()
        scidb = ArrayEngine("scidb")
        bigdawg.add_engine(RelationalEngine("postgres"), ["relational"])
        bigdawg.add_engine(scidb, ["array", "relational"])
        _waveform_array(scidb)
        bigdawg.catalog.register_object("waves", "scidb", "array")
        counters.update(rows=0, validate_row=0)
        result = bigdawg.execute(
            "RELATIONAL(SELECT i, count(*) AS n FROM CAST(waves, relational) "
            "WHERE value > 100 GROUP BY i)"
        )
        assert sorted(tuple(row.values) for row in result) == [
            (0, 399), (1, 500), (2, 500), (3, 500),
        ]
        assert counters["validate_row"] == 0
        # The 2000 waveform cells reach the scratch engine as columns; the
        # only rows built are the result's own.
        assert counters["rows"] <= len(result)

    @pytest.mark.parametrize("engine_kind", ["relational", "array"])
    def test_decoded_frame_is_columnar(self, engine_kind):
        relation = Relation(SCHEMA, [[1, 2, 0.5, "a", True, datetime(2020, 1, 1)]])
        migrator, postgres, scidb = _engines(relation)
        source = postgres if engine_kind == "relational" else scidb
        if engine_kind == "array":
            migrator.cast("t", "scidb", target_name="t_arr")
        name = "t" if engine_kind == "relational" else "t_arr"
        for chunk in source.export_chunks(name, 10):
            assert isinstance(chunk, ColumnarRelation)
            decoded = BinaryCodec().decode(BinaryCodec().encode(chunk), SCHEMA)
            assert isinstance(decoded, ColumnarRelation)


class TestColumnarImportChecks:
    STRICT = Schema([Column("id", "integer", nullable=False), Column("v", "integer")])

    def _import(self, columns, schema=STRICT, **options):
        engine = RelationalEngine("postgres")
        chunk = ColumnarRelation(schema, columns)
        engine.import_chunks("t", schema, [chunk], **options)
        return engine

    def test_null_in_non_nullable_column_raises(self):
        with pytest.raises(TypeMismatchError):
            self._import([[1, None, 3], [1, 2, 3]])

    def test_fractional_float_into_integer_raises(self):
        with pytest.raises(TypeMismatchError):
            self._import([[1, 2], [1, 1.5]])

    def test_whole_float_and_bool_are_coerced(self):
        engine = self._import([[1, 2], [4.0, True]])
        values = list(engine.table("t").scan_values())
        assert values == [(1, 4), (2, 1)]
        assert all(type(v) is int for row in values for v in row)

    def test_duplicate_primary_key_raises(self):
        with pytest.raises(ConstraintViolationError):
            self._import([[1, 2, 1], [0, 0, 0]], primary_key=("id",))

    def test_duplicate_primary_key_across_chunks_raises(self):
        engine = RelationalEngine("postgres")
        chunks = [ColumnarRelation(self.STRICT, [[1, 2], [0, 0]]),
                  ColumnarRelation(self.STRICT, [[3, 2], [0, 0]])]
        with pytest.raises(ConstraintViolationError):
            engine.import_chunks("t", self.STRICT, chunks, primary_key=("id",))

    def test_checks_fire_on_a_binary_cast(self):
        # A frame written for a nullable schema, imported into a strict one.
        loose = Schema([("id", "integer"), ("v", "float")])
        frame = BinaryCodec().encode(Relation(loose, [[1, 1.5], [None, 2.0]]))
        with pytest.raises(TypeMismatchError):
            BinaryCodec().decode(frame, self.STRICT)
        frame = BinaryCodec().encode(Relation(loose, [[1, 1.5]]))
        with pytest.raises(TypeMismatchError):
            BinaryCodec().decode(frame, self.STRICT)
        same_types = BinaryCodec().encode(Relation(
            Schema([("id", "integer"), ("v", "integer")]), [[None, 1]]))
        decoded = BinaryCodec().decode(same_types, self.STRICT)
        with pytest.raises(TypeMismatchError):
            RelationalEngine("postgres").import_chunks("t", self.STRICT, [decoded])
