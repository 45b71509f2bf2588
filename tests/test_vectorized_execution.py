"""Tests for the vectorized relational executor: batches, kernels, mode parity.

The contract under test: the ``vectorized`` and ``row`` execution modes are
observably identical — same schemas, same values, same ordering — with the
vectorized path never constructing per-row ``Row`` objects on its scan and
export hot paths.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import schema as schema_mod
from repro.common.expressions import (
    BinaryOp,
    ColumnRef,
    InList,
    Literal,
    UnaryOp,
    _like_regex,
    compile_predicate,
)
from repro.common.schema import Column, ColumnBatch, ColumnarRelation, Schema
from repro.common.serialization import BinaryCodec
from repro.common.types import DataType
from repro.engines.relational import RelationalEngine
from repro.engines.relational.executor import Executor
from repro.engines.relational.planner import ScanNode
from repro.engines.relational.vectorized import (
    DEFAULT_BATCH_ROWS,
    BatchExecutor,
    compile_filter_kernel,
)
from repro.observability.tracing import Tracer, set_tracer


# ------------------------------------------------------------------ fixtures
def make_engine(mode: str) -> RelationalEngine:
    """A deterministic two-table engine, identical for every call."""
    e = RelationalEngine("pg", execution_mode=mode)
    e.execute(
        "CREATE TABLE events (id INTEGER PRIMARY KEY, grp TEXT, value FLOAT, "
        "flag INTEGER, note TEXT)"
    )
    rows = []
    for i in range(500):
        grp = ["alpha", "beta", "gamma", None][i % 4]
        value = None if i % 11 == 0 else (i * 7 % 100) / 3.0
        flag = None if i % 13 == 0 else i % 5
        note = None if i % 17 == 0 else f"note_{i % 23}"
        rows.append((i, grp, value, flag, note))
    e.insert_rows("events", rows)
    e.execute("CREATE TABLE dims (grp TEXT, weight FLOAT)")
    e.insert_rows(
        "dims", [("alpha", 1.5), ("beta", 2.5), ("delta", 9.0), (None, 0.5)]
    )
    return e


#: A grid of queries spanning NULL-heavy columns, LIKE, outer joins, global
#: aggregates, DISTINCT, CASE, IN, scalar functions, HAVING and subqueries.
QUERY_GRID = [
    "SELECT * FROM events",
    "SELECT id, value FROM events WHERE value > 20 AND flag = 3",
    "SELECT id FROM events WHERE value IS NULL ORDER BY id",
    "SELECT id FROM events WHERE grp IS NOT NULL AND flag IN (1, 2) ORDER BY id DESC LIMIT 7 OFFSET 3",
    "SELECT id, note FROM events WHERE note LIKE 'note_1%' ORDER BY id",
    # TEXT equality and IN kernels over NULL-heavy columns.
    "SELECT id, grp FROM events WHERE grp = 'beta' ORDER BY id",
    "SELECT id FROM events WHERE grp <> 'alpha' AND note IN ('note_1', 'note_5', 'nope')",
    "SELECT count(*) AS n FROM events WHERE NOT (grp = 'gamma')",
    "SELECT id FROM events WHERE grp NOT IN ('alpha', 'beta') OR value > 30 ORDER BY id",
    "SELECT grp, count(*) AS n FROM events WHERE 'note_3' != note GROUP BY grp",
    "SELECT count(*) AS n, sum(value) AS s, avg(value) AS a, min(value) AS lo, max(value) AS hi FROM events",
    "SELECT count(*) AS n FROM events WHERE value > 200",
    "SELECT grp, count(*) AS n, avg(value) AS a FROM events GROUP BY grp ORDER BY n DESC",
    "SELECT grp, count(*) AS n FROM events GROUP BY grp HAVING count(*) > 100",
    "SELECT DISTINCT grp FROM events ORDER BY grp",
    "SELECT DISTINCT flag, grp FROM events WHERE id < 50",
    "SELECT e.id, d.weight FROM events e JOIN dims d ON e.grp = d.grp WHERE e.value > 10 ORDER BY e.id LIMIT 20",
    "SELECT e.id, d.weight FROM events e LEFT JOIN dims d ON e.grp = d.grp ORDER BY e.id LIMIT 40",
    "SELECT d.grp, count(*) AS n FROM dims d JOIN events e ON d.grp = e.grp GROUP BY d.grp ORDER BY d.grp",
    # Outer joins: NULL-keyed rows on both sides, unmatched rows both ways.
    "SELECT e.id, e.grp, d.weight FROM events e LEFT JOIN dims d ON e.grp = d.grp",
    "SELECT e.id, d.grp, d.weight FROM events e RIGHT JOIN dims d ON e.grp = d.grp",
    "SELECT e.id, e.grp, d.grp, d.weight FROM events e FULL OUTER JOIN dims d ON e.grp = d.grp",
    "SELECT d.grp, e.id FROM dims d LEFT OUTER JOIN events e ON d.grp = e.grp AND e.value > 25",
    "SELECT e.id, d.weight FROM events e FULL JOIN dims d ON e.grp = d.grp WHERE e.flag = 2 OR e.flag IS NULL",
    # Multi-column group-by and NULL-heavy grouped aggregates.
    "SELECT grp, flag, count(*) AS n, sum(value) AS s FROM events GROUP BY grp, flag",
    "SELECT grp, avg(value) AS a, min(value) AS lo, max(value) AS hi, count(value) AS c FROM events GROUP BY grp",
    "SELECT flag, grp, note, count(*) AS n FROM events GROUP BY flag, grp, note ORDER BY n DESC, flag, grp, note",
    "SELECT note, min(grp) AS g, count(*) AS n FROM events GROUP BY note HAVING count(*) > 10",
    "SELECT CASE WHEN value >= 20 THEN 'high' ELSE 'low' END AS band, id FROM events WHERE id < 30",
    "SELECT upper(grp) AS g, round(value) AS r FROM events WHERE id BETWEEN 10 AND 40 ORDER BY id",
    "SELECT count(*) AS n FROM (SELECT id FROM events WHERE flag = 2) t",
    "SELECT stddev(value) AS sd, count(DISTINCT grp) AS g FROM events",
    "SELECT id, value FROM events WHERE id = 137",
    "SELECT id FROM events WHERE id >= 480 ORDER BY id",
    "SELECT id, -value AS neg, NOT (flag = 1) AS nf FROM events WHERE id < 20",
    "SELECT 1 + 2 AS three",
]


#: Execution knobs that must never change a result: the batch size (many
#: small morsels through every operator), the join memory budget (spilling,
#: and re-spilling recursively at a 1-byte budget over two partitions), the
#: legacy block group-by, the plan optimizer, and tracing.
EXECUTION_KNOBS = [
    "batch_64",
    "batch_7",
    "spill",
    "spill_recursive",
    "block_groupby",
    "unoptimized",
    "traced",
]


def make_knob_engine(knob: str) -> RelationalEngine:
    """The vectorized grid engine with one execution knob turned."""
    e = make_engine("vectorized")
    if knob.startswith("batch_"):
        e._batch_executor._batch_rows = int(knob.split("_")[1])
    elif knob == "spill":
        e.join_memory_budget = 256
    elif knob == "spill_recursive":
        e.join_memory_budget = 1
        e.join_spill_partitions = 2
    elif knob == "block_groupby":
        e.streaming_groupby = False
    elif knob == "unoptimized":
        e.optimizer_enabled = False
    return e


class TestModeParity:
    """Property: both executors return identical relations for every query."""

    @pytest.fixture(scope="class")
    def engines(self):
        return make_engine("vectorized"), make_engine("row")

    @pytest.mark.parametrize("query", QUERY_GRID)
    def test_vectorized_equals_row(self, engines, query):
        vectorized, row = engines
        result_v = vectorized.execute(query)
        result_r = row.execute(query)
        assert result_v.schema == result_r.schema
        assert [r.values for r in result_v.rows] == [r.values for r in result_r.rows]

    @pytest.mark.parametrize(
        "query",
        [
            "SELECT count(*) AS n, sum(value) AS s, avg(value) AS a FROM events WHERE value > 20 AND flag = 3",
            "SELECT grp, count(*) AS n FROM events GROUP BY grp ORDER BY grp",
            "SELECT grp, flag, avg(value) AS a, sum(value) AS s, min(value) AS lo FROM events GROUP BY grp, flag",
            "SELECT e.id, e.grp, d.weight FROM events e LEFT JOIN dims d ON e.grp = d.grp",
            "SELECT e.id, d.grp FROM events e FULL OUTER JOIN dims d ON e.grp = d.grp",
        ],
    )
    def test_results_byte_identical_through_codec(self, engines, query):
        vectorized, row = engines
        codec = BinaryCodec()
        assert codec.encode(vectorized.execute(query)) == codec.encode(row.execute(query))

    @pytest.fixture(scope="class")
    def knob_engines(self):
        return {knob: make_knob_engine(knob) for knob in EXECUTION_KNOBS}

    @pytest.mark.parametrize("knob", EXECUTION_KNOBS)
    @pytest.mark.parametrize("query", QUERY_GRID)
    def test_vectorized_equals_row_under_knob(self, engines, knob_engines, knob, query):
        """Execution knobs are invisible: under each one, every grid query
        returns exactly the row executor's relation, down to the bytes."""
        _, row = engines
        engine = knob_engines[knob]
        if knob == "traced":
            previous = set_tracer(Tracer(enabled=True))
            try:
                result_v = engine.execute(query)
            finally:
                set_tracer(previous)
        else:
            result_v = engine.execute(query)
        result_r = row.execute(query)
        assert result_v.schema == result_r.schema
        assert [r.values for r in result_v.rows] == [r.values for r in result_r.rows]
        codec = BinaryCodec()
        try:
            expected = codec.encode(result_r)
        except ValueError:
            # A pre-existing inference quirk (min over TEXT typed FLOAT)
            # makes a few grid schemas unencodable on every path; the exact
            # value comparison above already covers those.
            return
        assert codec.encode(result_v) == expected

    def test_every_knob_engages(self):
        """Guards the knob grid against going vacuous: each knob really does
        take its own path on a join plus a group-by."""
        queries = [
            "SELECT a.id, b.value FROM events a JOIN events b ON a.id = b.id",
            "SELECT grp, count(*) AS n FROM events GROUP BY grp",
        ]
        ran = {}
        for knob in [*EXECUTION_KNOBS, "default"]:
            engine = make_knob_engine(knob)
            tracer = Tracer(enabled=knob == "traced")
            previous = set_tracer(tracer)
            try:
                for query in queries:
                    engine.execute(query)
            finally:
                set_tracer(previous)
            ran[knob] = (engine, tracer)
        default = ran["default"][0]
        assert ran["batch_64"][0].morsels_executed > default.morsels_executed
        assert ran["batch_7"][0].morsels_executed > ran["batch_64"][0].morsels_executed
        assert default.partitions_spilled == 0
        assert ran["spill"][0].partitions_spilled > 0
        assert ran["spill_recursive"][0].partitions_spilled > 2
        assert "block" in ran["block_groupby"][0].groupby_paths
        assert "block" not in default.groupby_paths
        assert default.explain(queries[0]) != ran["unoptimized"][0].explain(queries[0])
        assert ran["traced"][1].spans() and not ran["default"][1].spans()

    def test_update_delete_agree_across_modes(self):
        results = {}
        for mode in ("vectorized", "row"):
            e = make_engine(mode)
            e.execute("UPDATE events SET value = value + 1 WHERE flag = 2 AND value > 10")
            e.execute("DELETE FROM events WHERE note LIKE 'note_2%'")
            results[mode] = [r.values for r in e.execute("SELECT * FROM events ORDER BY id").rows]
        assert results["vectorized"] == results["row"]


class TestExecutionModeKnob:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            RelationalEngine("pg", execution_mode="warp")
        e = RelationalEngine("pg")
        with pytest.raises(ValueError):
            e.execution_mode = "warp"

    def test_mode_counters(self):
        e = make_engine("vectorized")
        e.execute("SELECT count(*) FROM events")
        e.execution_mode = "row"
        e.execute("SELECT count(*) FROM events")
        e.execute("SELECT count(*) FROM events")
        assert e.executions_by_mode["vectorized"] == 1
        assert e.executions_by_mode["row"] == 2

    def test_explain_reports_mode_and_operator_paths(self):
        e = make_engine("vectorized")
        plan = e.explain(
            "SELECT e.id, d.weight FROM events e LEFT JOIN dims d ON e.grp = d.grp WHERE e.value > 1"
        )
        assert plan.startswith("ExecutionMode(vectorized)")
        # Equi outer joins run on the batch pipeline now — no row fallback.
        join_line = next(line for line in plan.splitlines() if "Join" in line)
        assert "[vectorized]" in join_line
        scan_line = next(line for line in plan.splitlines() if "SeqScan" in line)
        assert "[vectorized]" in scan_line
        e.execution_mode = "row"
        assert e.explain("SELECT id FROM events").startswith("ExecutionMode(row)")
        assert "[vectorized]" not in e.explain("SELECT id FROM events")

    def test_explain_annotates_fallback_reason(self):
        e = make_engine("vectorized")
        plan = e.explain(
            "SELECT e.id FROM events e JOIN dims d ON e.value > d.weight LIMIT 5"
        )
        join_line = next(line for line in plan.splitlines() if "Join" in line)
        assert "[row: non-equi join]" in join_line
        cross = e.explain("SELECT count(*) AS n FROM events CROSS JOIN dims")
        cross_join_line = next(line for line in cross.splitlines() if "Join" in line)
        assert "[row: cross join]" in cross_join_line

    def test_fallback_reason_counters(self):
        e = make_engine("vectorized")
        assert e.fallback_reasons == {}
        e.execute("SELECT count(*) AS n FROM events CROSS JOIN dims")
        e.execute("SELECT count(*) AS n FROM events CROSS JOIN dims")
        e.execute("SELECT e.id FROM events e JOIN dims d ON e.value > d.weight LIMIT 5")
        assert e.fallback_reasons.get("cross join") == 2
        assert e.fallback_reasons.get("non-equi join") == 1
        # Vectorized shapes leave the counters alone.
        e.execute("SELECT e.id FROM events e LEFT JOIN dims d ON e.grp = d.grp LIMIT 5")
        assert sum(e.fallback_reasons.values()) == 3


class TestColumnBatch:
    def test_transpose_roundtrip(self):
        schema = Schema([("a", "integer"), ("b", "text")])
        batch = ColumnBatch.from_value_rows(schema, [(1, "x"), (2, "y"), (3, None)])
        assert len(batch) == 3
        assert [list(col) for col in batch.columns] == [[1, 2, 3], ["x", "y", None]]
        assert list(batch.value_rows()) == [(1, "x"), (2, "y"), (3, None)]

    def test_compress_and_take(self):
        schema = Schema([("a", "integer")])
        batch = ColumnBatch.from_value_rows(schema, [(i,) for i in range(6)])
        assert batch.compress([True, False, True, False, True, False]).columns == [[0, 2, 4]]
        assert batch.take([5, 0]).columns == [[5, 0]]

    def test_columnar_relation_lazy_rows(self):
        schema = Schema([("a", "integer"), ("b", "float")])
        relation = ColumnarRelation(schema, [[1, 2], [0.5, 1.5]])
        assert len(relation) == 2
        assert relation.column_values(0) == [1, 2]  # no Row materialization
        assert relation._materialized is False
        assert [r.values for r in relation.rows] == [(1, 0.5), (2, 1.5)]
        assert relation._materialized is True

    def test_columnar_relation_append_after_materialize(self):
        schema = Schema([("a", "integer")])
        relation = ColumnarRelation(schema, [[1]])
        relation.append([2])
        assert len(relation) == 2
        assert relation.column_values(0) == [1, 2]


class TestColumnarExport:
    def test_export_chunks_builds_no_rows(self, monkeypatch):
        engine = RelationalEngine("pg")
        engine.execute("CREATE TABLE m (a INTEGER, b FLOAT)")
        engine.insert_rows("m", [(i, i * 0.5) for i in range(5000)])
        codec = BinaryCodec()
        constructed = []
        original = schema_mod.Row.__init__

        def counting(self, *args, **kwargs):
            constructed.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(schema_mod.Row, "__init__", counting)
        payloads = [codec.encode(chunk) for chunk in engine.export_chunks("m", chunk_size=1024)]
        monkeypatch.undo()
        assert len(payloads) == 5
        assert not constructed, "columnar CAST export must not build Row objects"
        # And the payloads decode to the full table.
        total = sum(len(codec.decode(p, engine.export_schema("m"))) for p in payloads)
        assert total == 5000

    def test_export_chunks_rows_still_available_lazily(self):
        engine = RelationalEngine("pg")
        engine.execute("CREATE TABLE m (a INTEGER, t TEXT)")
        engine.insert_rows("m", [(1, "x"), (2, "y")])
        chunks = list(engine.export_chunks("m"))
        assert [r.values for chunk in chunks for r in chunk] == [(1, "x"), (2, "y")]


class TestLikeCompilation:
    def test_like_regex_compiled_once(self):
        _like_regex.cache_clear()
        engine = make_engine("row")  # the interpreted path used to recompile per row
        result = engine.execute("SELECT count(*) AS n FROM events WHERE note LIKE 'note_1%'")
        assert result.rows[0]["n"] > 0
        info = _like_regex.cache_info()
        assert info.misses == 1, "LIKE pattern must compile exactly once"
        assert info.hits >= 400  # one hit per scanned non-null row after the first

    def test_like_semantics_unchanged(self):
        engine = make_engine("vectorized")
        # % spans any run, _ exactly one character; both are case sensitive.
        rows = engine.execute(
            "SELECT DISTINCT note FROM events WHERE note LIKE 'note__' ORDER BY note"
        )
        notes = [r["note"] for r in rows]
        assert notes and all(len(n) == 6 and n.startswith("note_") for n in notes)
        none = engine.execute("SELECT count(*) AS n FROM events WHERE note LIKE 'NOTE%'")
        assert none.rows[0]["n"] == 0
        # Regex metacharacters in the pattern stay literal.
        literal = engine.execute("SELECT count(*) AS n FROM events WHERE note LIKE 'note.1'")
        assert literal.rows[0]["n"] == 0


class TestFilterKernel:
    def make_schema(self) -> Schema:
        return Schema(
            [
                Column("a", DataType.INTEGER),
                Column("b", DataType.FLOAT),
                Column("t", DataType.TEXT),
            ]
        )

    def test_numeric_kernel_matches_row_semantics_with_nulls(self):
        schema = self.make_schema()
        predicate = BinaryOp(
            "and",
            BinaryOp(">", ColumnRef("a"), Literal(1)),
            BinaryOp("<", ColumnRef("b"), Literal(10.0)),
        )
        kernel = compile_filter_kernel(predicate, schema)
        assert kernel is not None
        rows = [
            (0, 5.0, "x"),
            (2, None, "x"),
            (3, 4.0, "x"),
            (None, 1.0, "x"),
            (9, 99.0, "x"),
        ]
        batch = ColumnBatch.from_value_rows(schema, rows)
        mask = kernel(batch)
        reference = compile_predicate(predicate, schema)
        assert list(mask) == [reference(row) for row in rows]

    #: NULL-heavy TEXT column (every third row), numeric NULLs elsewhere.
    TEXT_ROWS = [
        (i, None if i % 5 == 0 else i * 0.5, None if i % 3 == 0 else ["x", "y", "zz", ""][i % 4])
        for i in range(40)
    ]

    @pytest.mark.parametrize(
        "predicate",
        [
            BinaryOp("=", ColumnRef("t"), Literal("x")),
            BinaryOp("==", ColumnRef("t"), Literal("y")),
            BinaryOp("!=", ColumnRef("t"), Literal("x")),
            BinaryOp("<>", ColumnRef("t"), Literal("")),
            BinaryOp("=", Literal("zz"), ColumnRef("t")),
            InList(ColumnRef("t"), ("x", "zz")),
            InList(ColumnRef("t"), ("y", "missing"), negated=True),
            UnaryOp("not", BinaryOp("=", ColumnRef("t"), Literal("x"))),
            BinaryOp(
                "and",
                BinaryOp("=", ColumnRef("t"), Literal("y")),
                BinaryOp(">", ColumnRef("b"), Literal(4.0)),
            ),
            BinaryOp(
                "or",
                BinaryOp("!=", ColumnRef("t"), Literal("zz")),
                BinaryOp("<", ColumnRef("a"), Literal(6)),
            ),
        ],
        ids=lambda p: p.to_sql(),
    )
    def test_text_equality_and_in_compile_to_kernel(self, predicate):
        schema = self.make_schema()
        kernel = compile_filter_kernel(predicate, schema)
        assert kernel is not None
        reference = compile_predicate(predicate, schema)
        expected = [reference(row) for row in self.TEXT_ROWS]
        # Tuple columns (a transposed batch) and object-array columns (a
        # scan image slice) must both give the row closure's mask.
        tuples = ColumnBatch.from_value_rows(schema, self.TEXT_ROWS)
        arrays = ColumnBatch(
            schema, [np.array(column, dtype=object) for column in tuples.columns]
        )
        assert list(kernel(tuples)) == expected
        assert list(kernel(arrays)) == expected

    @pytest.mark.parametrize(
        "predicate",
        [
            BinaryOp("like", ColumnRef("t"), Literal("x%")),
            BinaryOp("<", ColumnRef("t"), Literal("y")),
            BinaryOp(">", ColumnRef("t"), Literal("x")),
            BinaryOp("=", ColumnRef("t"), Literal(5)),
            InList(ColumnRef("t"), ("x", 5)),
        ],
        ids=lambda p: p.to_sql(),
    )
    def test_text_ordering_like_and_mixed_literals_have_no_kernel(self, predicate):
        assert compile_filter_kernel(predicate, self.make_schema()) is None

    def test_division_over_integer_columns_left_to_row_path(self):
        # int64 true division would double-round where Python's int/int does
        # not; only float columns get the masked-division kernel.
        schema = self.make_schema()
        predicate = BinaryOp(">", BinaryOp("/", ColumnRef("a"), ColumnRef("b")), Literal(1))
        assert compile_filter_kernel(predicate, schema) is None

    def test_masked_division_kernel_over_float_columns(self):
        schema = Schema([Column("x", DataType.FLOAT), Column("y", DataType.FLOAT)])
        predicate = BinaryOp(">", BinaryOp("/", ColumnRef("x"), ColumnRef("y")), Literal(1))
        kernel = compile_filter_kernel(predicate, schema)
        assert kernel is not None
        batch = ColumnBatch.from_value_rows(
            schema, [(4.0, 2.0), (1.0, 2.0), (None, 0.0), (3.0, None)]
        )
        # NULL dividend or divisor yields NULL (no error), like _null_safe.
        assert list(kernel(batch)) == [True, False, False, False]

    def test_masked_division_raises_like_row_path(self):
        from repro.common.errors import ExecutionError

        schema = Schema([Column("x", DataType.FLOAT), Column("y", DataType.FLOAT)])
        predicate = BinaryOp(">", BinaryOp("/", ColumnRef("x"), ColumnRef("y")), Literal(1))
        kernel = compile_filter_kernel(predicate, schema)
        batch = ColumnBatch.from_value_rows(schema, [(4.0, 2.0), (1.0, 0.0)])
        with pytest.raises(ExecutionError, match="division by zero"):
            kernel(batch)

    def test_masked_division_respects_and_short_circuit(self):
        # Row semantics: `y > 0 AND x / y > 1` never divides where y <= 0,
        # so a zero divisor behind the guard must not raise.
        schema = Schema([Column("x", DataType.FLOAT), Column("y", DataType.FLOAT)])
        predicate = BinaryOp(
            "and",
            BinaryOp(">", ColumnRef("y"), Literal(0)),
            BinaryOp(">", BinaryOp("/", ColumnRef("x"), ColumnRef("y")), Literal(1)),
        )
        kernel = compile_filter_kernel(predicate, schema)
        assert kernel is not None
        batch = ColumnBatch.from_value_rows(
            schema, [(4.0, 2.0), (9.0, 0.0), (1.0, 2.0), (5.0, None)]
        )
        assert list(kernel(batch)) == [True, False, False, False]

    def test_modulo_kernel_matches_python_semantics(self):
        schema = Schema([Column("x", DataType.FLOAT)])
        predicate = BinaryOp("=", BinaryOp("%", ColumnRef("x"), Literal(3)), Literal(1.0))
        kernel = compile_filter_kernel(predicate, schema)
        assert kernel is not None
        batch = ColumnBatch.from_value_rows(schema, [(7.0,), (-2.0,), (6.0,), (None,)])
        reference = compile_predicate(predicate, schema)
        assert list(kernel(batch)) == [reference(row) for row in batch.value_rows()]


class TestDivisionModeParity:
    """Satellite (e): `/` and `%` kernels keep per-row error semantics."""

    @staticmethod
    def build(mode):
        e = RelationalEngine("d", execution_mode=mode)
        e.execute("CREATE TABLE m (x FLOAT, y FLOAT)")
        e.insert_rows("m", [(4.0, 2.0), (9.0, 3.0), (1.0, 4.0), (None, 5.0), (8.0, None)])
        return e

    def test_division_results_identical(self):
        results = {}
        for mode in ("vectorized", "row"):
            e = self.build(mode)
            results[mode] = [
                r.values for r in e.execute("SELECT x FROM m WHERE x / y > 1.5 ORDER BY x").rows
            ]
        assert results["vectorized"] == results["row"] == [(4.0,), (9.0,)]

    def test_division_by_zero_raises_in_both_modes(self):
        from repro.common.errors import ExecutionError

        for mode in ("vectorized", "row"):
            e = self.build(mode)
            e.execute("INSERT INTO m VALUES (1.0, 0.0)")
            with pytest.raises(ExecutionError, match="division by zero"):
                e.execute("SELECT x FROM m WHERE x / y > 1")

    def test_zero_divisor_behind_and_guard_skipped_in_both_modes(self):
        results = {}
        for mode in ("vectorized", "row"):
            e = self.build(mode)
            e.insert_rows("m", [(7.0, 0.0)])
            results[mode] = [
                r.values
                for r in e.execute(
                    "SELECT x FROM m WHERE y > 1 AND x / y > 1.5 ORDER BY x"
                ).rows
            ]
        assert results["vectorized"] == results["row"] == [(4.0,), (9.0,)]


class TestOuterJoinWherePlacement:
    """WHERE is post-join for outer joins: no pushdown to the padded side."""

    @staticmethod
    def build(mode):
        e = RelationalEngine("w", execution_mode=mode)
        e.execute("CREATE TABLE a (id INTEGER, k INTEGER)")
        e.execute("CREATE TABLE b (k INTEGER, v FLOAT)")
        e.insert_rows("a", [(1, 1), (2, 2)])
        e.insert_rows("b", [(1, 5.0)])
        return e

    def test_where_on_padded_side_filters_padded_rows(self):
        for mode in ("vectorized", "row"):
            e = self.build(mode)
            rows = [
                r.values
                for r in e.execute(
                    "SELECT a.id, b.v FROM a LEFT JOIN b ON a.k = b.k WHERE b.v > 0"
                ).rows
            ]
            # Standard SQL: the padded row (2, NULL) cannot satisfy b.v > 0.
            assert rows == [(1, 5.0)], mode

    def test_where_on_preserved_side_still_pushes_down(self):
        e = self.build("vectorized")
        plan = e.explain("SELECT a.id FROM a LEFT JOIN b ON a.k = b.k WHERE a.id > 1")
        scan_a = next(line for line in plan.splitlines() if "SeqScan(a)" in line)
        assert "filter=" in scan_a  # preserved-side conjunct pushed onto the scan
        rows = [
            r.values
            for r in e.execute(
                "SELECT a.id, b.v FROM a LEFT JOIN b ON a.k = b.k WHERE a.id > 1"
            ).rows
        ]
        assert rows == [(2, None)]

    def test_full_join_where_stays_above(self):
        for mode in ("vectorized", "row"):
            e = self.build(mode)
            rows = [
                r.values
                for r in e.execute(
                    "SELECT a.id, b.v FROM a FULL JOIN b ON a.k = b.k WHERE a.id IS NOT NULL"
                ).rows
            ]
            assert rows == [(1, 5.0), (2, None)], mode


class TestNaNParity:
    """NaN shapes force the per-row accumulators (position-dependent folds)."""

    def test_grouped_min_max_with_nan_matches_row_mode(self):
        import math

        out = {}
        for mode in ("vectorized", "row"):
            e = RelationalEngine("n", execution_mode=mode)
            e.execute("CREATE TABLE t (g INTEGER, v FLOAT)")
            e.insert_rows(
                "t",
                [(1, 5.0), (1, float("nan")), (2, float("nan")), (2, 3.0), (1, 2.0)],
            )
            out[mode] = [
                r.values
                for r in e.execute(
                    "SELECT g, min(v) AS lo, max(v) AS hi FROM t GROUP BY g"
                ).rows
            ]

        def same(x, y):
            if isinstance(x, float) and isinstance(y, float):
                return x == y or (math.isnan(x) and math.isnan(y))
            return x == y

        assert all(
            same(x, y)
            for a, b in zip(out["vectorized"], out["row"])
            for x, y in zip(a, b)
        )

    def test_nan_group_keys_match_row_mode(self):
        out = {}
        for mode in ("vectorized", "row"):
            e = RelationalEngine("n2", execution_mode=mode)
            e.execute("CREATE TABLE t (v FLOAT)")
            e.insert_rows("t", [(float("nan"),), (1.0,), (float("nan"),), (1.0,)])
            out[mode] = [
                r.values
                for r in e.execute("SELECT v, count(*) AS n FROM t GROUP BY v").rows
            ]
        # Distinct NaN objects are distinct dict keys on the row path; the
        # vectorized path must not collapse them into one group.
        assert len(out["vectorized"]) == len(out["row"]) == 3
        assert [n for _v, n in out["vectorized"]] == [n for _v, n in out["row"]]

    def test_self_referential_equality_not_tagged_vectorized(self):
        e = RelationalEngine("sr")
        e.execute("CREATE TABLE a (x INTEGER)")
        e.execute("CREATE TABLE b (y INTEGER)")
        e.insert_rows("a", [(1,)])
        e.insert_rows("b", [(2,)])
        plan = e.explain("SELECT a.x FROM a JOIN b ON a.x = a.x")
        join_line = next(line for line in plan.splitlines() if "Join" in line)
        assert "[row: non-equi join]" in join_line
        # And execution agrees with row mode (falls back, same answer).
        vec = [r.values for r in e.execute("SELECT a.x FROM a JOIN b ON a.x = a.x").rows]
        e.execution_mode = "row"
        assert vec == [r.values for r in e.execute("SELECT a.x FROM a JOIN b ON a.x = a.x").rows]


class TestBuildSideHint:
    """Satellite: the planner's build-side decision reaches both executors."""

    @staticmethod
    def build(mode="vectorized"):
        e = RelationalEngine("b", execution_mode=mode)
        e.execute("CREATE TABLE big (id INTEGER, k INTEGER)")
        e.insert_rows("big", [(i, i % 40) for i in range(2000)])
        e.execute("CREATE TABLE small (k INTEGER, tag TEXT)")
        e.insert_rows("small", [(k, f"t{k}") for k in range(30)])
        return e

    def test_planner_builds_on_smaller_side(self):
        e = self.build()
        # Large left, small right: the hash table must build on the right.
        plan = e.explain("SELECT b.id, s.tag FROM big b JOIN small s ON b.k = s.k")
        join_line = next(line for line in plan.splitlines() if "Join" in line)
        assert "build=right" in join_line
        # Small left, large right: build stays on the left.
        plan = e.explain("SELECT b.id, s.tag FROM small s JOIN big b ON b.k = s.k")
        join_line = next(line for line in plan.splitlines() if "Join" in line)
        assert "build=left" in join_line

    def test_outer_join_with_empty_build_side(self):
        # Regression: the pad gather must not index into zero-length build
        # columns when the right side is empty (or filtered to nothing).
        out = {}
        for mode in ("vectorized", "row"):
            e = RelationalEngine("eb", execution_mode=mode)
            e.execute("CREATE TABLE a (id INTEGER, k INTEGER)")
            e.execute("CREATE TABLE b (k INTEGER, w FLOAT)")
            e.insert_rows("a", [(1, 10), (2, 20)])
            out[mode] = {
                "empty": [
                    r.values
                    for r in e.execute(
                        "SELECT a.id, b.w FROM a LEFT JOIN b ON a.k = b.k"
                    ).rows
                ],
                "full": [
                    r.values
                    for r in e.execute(
                        "SELECT a.id, b.w FROM a FULL JOIN b ON a.k = b.k"
                    ).rows
                ],
            }
        assert out["vectorized"] == out["row"]
        assert out["row"]["empty"] == [(1, None), (2, None)]

    def test_probe_key_beyond_int64_matches_row_mode(self):
        # Regression: a probe-side Python int too large for int64 must probe
        # as "no match", not crash the numeric transform.
        out = {}
        for mode in ("vectorized", "row"):
            e = RelationalEngine("oi", execution_mode=mode)
            e.execute("CREATE TABLE big (k INTEGER)")
            e.execute("CREATE TABLE small (k INTEGER, tag TEXT)")
            e.insert_rows("big", [(2**70,), (5,), (7,)])
            e.insert_rows("small", [(5, "five"), (9, "nine")])
            out[mode] = [
                r.values
                for r in e.execute(
                    "SELECT b.k, s.tag FROM big b LEFT JOIN small s ON b.k = s.k"
                ).rows
            ]
        assert out["vectorized"] == out["row"]
        assert (2**70, None) in out["row"] and (5, "five") in out["row"]

    def test_large_left_small_right_parity(self):
        out = {}
        for mode in ("vectorized", "row"):
            e = self.build(mode)
            out[mode] = [
                r.values
                for r in e.execute(
                    "SELECT b.id, s.tag FROM big b JOIN small s ON b.k = s.k ORDER BY b.id"
                ).rows
            ]
        assert out["vectorized"] == out["row"]
        assert len(out["row"]) == 1500  # 2000 rows, 30 of 40 key values match


class TestModeParityEdgeCases:
    """Regressions for divergences the numeric kernels could introduce."""

    @staticmethod
    def run_both(create_sql, table, rows, query):
        out = {}
        for mode in ("vectorized", "row"):
            e = RelationalEngine("t", execution_mode=mode)
            e.execute(create_sql)
            e.insert_rows(table, rows)
            out[mode] = [r.values for r in e.execute(query).rows]
        return out

    def test_integer_arithmetic_does_not_wrap(self):
        # int64 kernels would wrap 4e9**2 negative; Python ints must win.
        out = self.run_both(
            "CREATE TABLE t (v INTEGER)", "t",
            [(4_000_000_000,), (2,)],
            "SELECT v FROM t WHERE v * v > 0",
        )
        assert out["vectorized"] == out["row"] == [(4_000_000_000,), (2,)]

    def test_falsy_integer_and_null_is_null(self):
        # Row mode short-circuits AND only on the literal False: 0 AND NULL
        # is NULL (excluded), and NOT NULL stays NULL.
        out = self.run_both(
            "CREATE TABLE u (flag INTEGER, y FLOAT)", "u",
            [(0, None), (0, 1.0), (1, 9.0)],
            "SELECT flag FROM u WHERE NOT (flag AND y > 5)",
        )
        assert out["vectorized"] == out["row"]

    def test_sum_over_text_concatenates_like_row_mode(self):
        out = self.run_both(
            "CREATE TABLE s (name TEXT)", "s",
            [("a",), ("b",)],
            "SELECT sum(name) AS s FROM s",
        )
        assert out["vectorized"] == out["row"] == [("ab",)]


class TestRuntimeModeThreading:
    def test_scheduler_metrics_report_execution_modes(self):
        from repro.core.bigdawg import BigDawg
        from repro.runtime import PolystoreRuntime

        bigdawg = BigDawg()
        engine = RelationalEngine("postgres")
        bigdawg.add_engine(engine, islands=["relational"])
        engine.execute("CREATE TABLE t (id INTEGER, v FLOAT)")
        engine.insert_rows("t", [(1, 2.0), (2, 4.0)])
        runtime = PolystoreRuntime(bigdawg, workers=2)
        try:
            runtime.execute("RELATIONAL(SELECT count(*) AS n FROM t)", use_cache=False)
            modes = runtime.describe()["metrics"]["relational_execution_modes"]
            assert modes.get("vectorized", 0) >= 1
            runtime.set_relational_execution_mode("row")
            assert engine.execution_mode == "row"
            runtime.execute("RELATIONAL(SELECT count(*) AS n FROM t)", use_cache=False)
            modes = runtime.describe()["metrics"]["relational_execution_modes"]
            assert modes.get("row", 0) >= 1
        finally:
            runtime.shutdown()

    def test_runtime_metrics_report_fallback_reasons(self):
        from repro.core.bigdawg import BigDawg
        from repro.runtime import PolystoreRuntime

        bigdawg = BigDawg()
        engine = RelationalEngine("postgres")
        bigdawg.add_engine(engine, islands=["relational"])
        engine.execute("CREATE TABLE a (id INTEGER)")
        engine.execute("CREATE TABLE b (id INTEGER)")
        engine.insert_rows("a", [(1,), (2,)])
        engine.insert_rows("b", [(1,), (3,)])
        runtime = PolystoreRuntime(bigdawg, workers=2)
        try:
            runtime.execute(
                "RELATIONAL(SELECT count(*) AS n FROM a CROSS JOIN b)", use_cache=False
            )
            reasons = runtime.describe()["metrics"]["relational_fallback_reasons"]
            assert reasons.get("cross join", 0) >= 1
            # Vectorized equi-joins do not add fallback counts.
            runtime.execute(
                "RELATIONAL(SELECT count(*) AS n FROM a LEFT JOIN b ON a.id = b.id)",
                use_cache=False,
            )
            after = runtime.describe()["metrics"]["relational_fallback_reasons"]
            assert sum(after.values()) == sum(reasons.values())
        finally:
            runtime.shutdown()


# ----------------------------------------------------------------- scan image
def scan_both_ways(engine: RelationalEngine, table: str, predicate=None):
    """(vectorized scan values, row-executor scan values) of one table."""
    node = ScanNode(table=table, predicate=predicate)
    vectorized = BatchExecutor(engine).execute(node)
    row = Executor(engine).execute(node)
    return [r.values for r in vectorized.rows], [r.values for r in row.rows]


class TestScanImage:
    """Sequential scans read a per-table columnar image that every write
    invalidates; a scan already running keeps its snapshot."""

    @staticmethod
    def make_table(rows: int = 2 * DEFAULT_BATCH_ROWS + 7) -> RelationalEngine:
        engine = RelationalEngine("pg")
        engine.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT)")
        engine.insert_rows("t", [(i, f"r{i % 7}") for i in range(rows)])
        return engine

    def test_scan_interleaved_with_insert_reads_snapshot(self):
        engine = self.make_table()
        before = list(engine.table("t").scan_values())
        _schema, batches = BatchExecutor(engine).stream(ScanNode(table="t"))
        first = next(batches)
        engine.execute("INSERT INTO t VALUES (-1, 'late')")
        drained = [values for batch in (first, *batches) for values in batch.value_rows()]
        assert drained == before

        chunks = engine.export_chunks("t", chunk_size=1000)
        first_chunk = next(chunks)
        engine.execute("INSERT INTO t VALUES (-2, 'later')")
        exported = [row.values for chunk in (first_chunk, *chunks) for row in chunk]
        assert exported == before + [(-1, "late")]

    def test_two_scans_without_a_write_build_the_image_once(self):
        engine = self.make_table()
        table = engine.table("t")
        builds = table.image_builds
        first, _ = scan_both_ways(engine, "t")
        second, _ = scan_both_ways(engine, "t")
        assert first == second
        assert table.image_builds == builds + 1
        list(engine.export_chunks("t", chunk_size=500))
        assert table.image_builds == builds + 1
        engine.execute("UPDATE t SET b = 'u' WHERE a = 3")
        scan_both_ways(engine, "t")
        scan_both_ways(engine, "t")
        assert table.image_builds == builds + 2

    def test_image_is_read_only(self):
        engine = self.make_table(10)
        image = engine.table("t").scan_image()
        with pytest.raises(ValueError):
            image.columns[0][0] = 99

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda e: e.table("t").insert((10_000, "direct")), id="insert"),
            pytest.param(lambda e: e.insert_rows("t", [(10_001, "x"), (10_002, None)]), id="insert_rows"),
            pytest.param(lambda e: e.execute("UPDATE t SET b = 'upd' WHERE a < 50"), id="update"),
            pytest.param(lambda e: e.execute("DELETE FROM t WHERE b = 'r3'"), id="delete"),
            pytest.param(lambda e: e.table("t").truncate(), id="truncate"),
            pytest.param(
                lambda e: (
                    e.execute("DROP TABLE t"),
                    e.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT)"),
                    e.insert_rows("t", [(1, "again")]),
                ),
                id="drop_recreate",
            ),
        ],
    )
    def test_every_mutator_invalidates_the_image(self, mutate):
        engine = self.make_table()
        predicate = BinaryOp("!=", ColumnRef("b"), Literal("r1"))
        stale, _ = scan_both_ways(engine, "t")  # builds the image
        mutate(engine)
        for pred in (None, predicate):
            vectorized, row = scan_both_ways(engine, "t", pred)
            assert vectorized == row
        assert scan_both_ways(engine, "t")[0] != stale

    def test_rollback_invalidates_the_image(self):
        engine = self.make_table(300)
        committed, _ = scan_both_ways(engine, "t")
        txn = engine.begin()
        engine.execute("INSERT INTO t VALUES (5000, 'txn')")
        engine.execute("UPDATE t SET b = 'txn' WHERE a < 10")
        engine.execute("DELETE FROM t WHERE a >= 290 AND a < 300")
        inside, row_inside = scan_both_ways(engine, "t")
        assert inside == row_inside and inside != committed
        txn.rollback()  # replays through HeapTable.insert/update/delete
        after, row_after = scan_both_ways(engine, "t")
        assert after == row_after
        assert sorted(after) == sorted(committed)

    def test_scans_concurrent_with_a_writer_read_consistent_snapshots(self):
        engine = RelationalEngine("pg")
        engine.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        table = engine.table("t")
        total = 3000
        expected = [(i, f"v{i % 5}") for i in range(total)]
        failures: list[str] = []
        done = threading.Event()

        def write() -> None:
            try:
                for row in expected:
                    table.insert(row)
            finally:
                done.set()

        def read() -> None:
            executor = BatchExecutor(engine, batch_rows=64)
            seen = 0
            while not done.is_set() or seen < total:
                try:
                    values = [r.values for r in executor.execute(ScanNode(table="t")).rows]
                except Exception as exc:  # noqa: BLE001 - reported by the test
                    failures.append(repr(exc))
                    return
                if values != expected[: len(values)] or len(values) < seen:
                    failures.append(f"inconsistent scan of {len(values)} rows after {seen}")
                    return
                seen = len(values)

        threads = [threading.Thread(target=write)] + [threading.Thread(target=read) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert table.version == total
        assert scan_both_ways(engine, "t")[0] == expected

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("insert"), st.sampled_from(["p", "q", None])),
                st.tuples(st.just("update"), st.integers(0, 40), st.sampled_from(["p", "r", None])),
                st.tuples(st.just("delete"), st.integers(0, 40)),
                st.tuples(st.just("truncate")),
            ),
            max_size=12,
        )
    )
    def test_random_write_sequences_keep_scans_exact(self, ops):
        engine = RelationalEngine("pg")
        engine.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        engine.insert_rows("t", [(i, ["p", "q", None][i % 3]) for i in range(30)])
        table = engine.table("t")
        predicate = InList(ColumnRef("b"), ("p", "r"))
        next_key = 100
        for op in ops:
            if op[0] == "insert":
                engine.insert_rows("t", [(next_key, op[1])])
                next_key += 1
            elif op[0] == "update":
                engine.execute(f"UPDATE t SET b = {Literal(op[2]).to_sql()} WHERE a = {op[1]}")
            elif op[0] == "delete":
                engine.execute(f"DELETE FROM t WHERE a = {op[1]}")
            else:
                table.truncate()
            for pred in (None, predicate):
                vectorized, row = scan_both_ways(engine, "t", pred)
                assert vectorized == row
