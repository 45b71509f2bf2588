"""Tests for the relational engine: B-tree, storage, SQL parsing, planning, execution."""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import (
    ConstraintViolationError,
    ObjectNotFoundError,
    ParseError,
    SchemaError,
)
from repro.common.schema import Schema
from repro.engines.base import EngineCapability
from repro.engines.relational import BTreeIndex, HeapTable, RelationalEngine
from repro.engines.relational.sql.ast import SelectStatement
from repro.engines.relational.sql.parser import parse_sql


# --------------------------------------------------------------------------- B-tree
class TestBTree:
    def test_insert_and_search(self):
        tree = BTreeIndex(order=4)
        for i in range(100):
            tree.insert((i % 10,), i)
        assert sorted(tree.search((3,))) == [3, 13, 23, 33, 43, 53, 63, 73, 83, 93]
        assert tree.search((99,)) == []

    def test_range_scan_ordered(self):
        tree = BTreeIndex(order=4)
        for i in range(200, 0, -1):
            tree.insert((i,), i)
        keys = [k[0] for k, _ in tree.range_scan((50,), (60,))]
        assert keys == list(range(50, 61))
        open_low = [k[0] for k, _ in tree.range_scan(None, (5,))]
        assert open_low == [1, 2, 3, 4, 5]

    def test_range_scan_exclusive_bounds(self):
        tree = BTreeIndex()
        for i in range(10):
            tree.insert((i,), i)
        keys = [k[0] for k, _ in tree.range_scan((2,), (5,), include_low=False, include_high=False)]
        assert keys == [3, 4]

    def test_unique_index_rejects_duplicates(self):
        tree = BTreeIndex(unique=True)
        tree.insert(("a",), 1)
        with pytest.raises(ValueError):
            tree.insert(("a",), 2)

    def test_delete(self):
        tree = BTreeIndex(order=4)
        for i in range(50):
            tree.insert((i,), i)
        assert tree.delete((10,), 10) is True
        assert tree.delete((10,), 10) is False
        assert tree.search((10,)) == []
        assert len(tree) == 49

    def test_height_grows_with_size(self):
        tree = BTreeIndex(order=4)
        assert tree.height() == 1
        for i in range(500):
            tree.insert((i,), i)
        assert tree.height() >= 3
        # Every key is still reachable in order.
        assert [k[0] for k in tree.keys()] == list(range(500))

    def test_order_too_small_rejected(self):
        with pytest.raises(ValueError):
            BTreeIndex(order=2)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=300))
def test_btree_property_sorted_iteration(values):
    """Property: iterating a B+tree yields keys in sorted order, all values present."""
    tree = BTreeIndex(order=8)
    for i, value in enumerate(values):
        tree.insert((value,), i)
    scanned = [key[0] for key, _ in tree.items()]
    assert scanned == sorted(scanned)
    assert len(list(tree.items())) == len(values)


# --------------------------------------------------------------------------- storage
class TestHeapTable:
    def make_table(self) -> HeapTable:
        schema = Schema([("id", "integer", False), ("name", "text"), ("score", "float")])
        return HeapTable("t", schema, primary_key=("id",))

    def test_insert_get_update_delete(self):
        table = self.make_table()
        rid = table.insert([1, "a", 1.5])
        assert table.get(rid) == (1, "a", 1.5)
        table.update(rid, [1, "b", 2.5])
        assert table.get(rid)[1] == "b"
        table.delete(rid)
        with pytest.raises(ObjectNotFoundError):
            table.get(rid)

    def test_primary_key_enforced(self):
        table = self.make_table()
        table.insert([1, "a", 1.0])
        with pytest.raises(ConstraintViolationError):
            table.insert([1, "b", 2.0])

    def test_secondary_index_lookup_and_range(self):
        table = self.make_table()
        table.insert_many([[i, f"n{i}", float(i % 5)] for i in range(1, 51)])
        table.create_index("idx_score", ["score"])
        hits = table.index_lookup("idx_score", 3.0)
        assert all(values[2] == 3.0 for _rid, values in hits)
        ranged = list(table.index_range("idx_score", low=1.0, high=2.0))
        assert all(1.0 <= values[2] <= 2.0 for _rid, values in ranged)

    def test_index_maintained_on_update_and_delete(self):
        table = self.make_table()
        rid = table.insert([1, "a", 5.0])
        table.create_index("idx_score", ["score"])
        table.update(rid, [1, "a", 9.0])
        assert table.index_lookup("idx_score", 5.0) == []
        assert len(table.index_lookup("idx_score", 9.0)) == 1
        table.delete(rid)
        assert table.index_lookup("idx_score", 9.0) == []

    def test_duplicate_index_and_bad_column(self):
        table = self.make_table()
        table.create_index("idx", ["name"])
        with pytest.raises(SchemaError):
            table.create_index("idx", ["name"])
        table.create_index("idx", ["name"], if_not_exists=True)
        with pytest.raises(SchemaError):
            table.create_index("idx2", ["missing"])

    def test_truncate_keeps_indexes(self):
        table = self.make_table()
        table.insert([1, "a", 1.0])
        table.create_index("idx_name", ["name"])
        table.truncate()
        assert len(table) == 0
        assert "idx_name" in table.indexes()

    def test_concurrent_inserts_into_one_pk_table(self):
        # The runtime admits two operations per engine at once; a tiny
        # switch interval makes writers interleave inside row-id allocation
        # and B+tree splits.
        engine = RelationalEngine()
        engine.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT)")
        threads_n, per_thread = 4, 500
        errors: list[BaseException] = []

        def writer(offset: int) -> None:
            try:
                for i in range(offset, offset + per_thread):
                    engine.execute(f"INSERT INTO t VALUES ({i}, 'v{i}')")
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=writer, args=(n * per_thread,))
                for n in range(threads_n)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            sys.setswitchinterval(previous)
        assert errors == []
        total = threads_n * per_thread
        table = engine.table("t")
        row_ids = [row_id for row_id, _values in table.scan()]
        assert len(row_ids) == total
        assert len(set(row_ids)) == total
        for key in range(total):
            assert [values for _rid, values in table.index_lookup("__pk__", key)] == [
                (key, f"v{key}")
            ]


# --------------------------------------------------------------------------- parser
class TestSqlParser:
    def test_select_structure(self):
        stmt = parse_sql(
            "SELECT p.race, count(*) AS n FROM patients p JOIN admissions a ON p.id = a.pid "
            "WHERE p.age > 60 AND a.stay BETWEEN 1 AND 5 GROUP BY p.race HAVING count(*) > 2 "
            "ORDER BY n DESC LIMIT 10 OFFSET 5"
        )
        assert isinstance(stmt, SelectStatement)
        assert stmt.items[1].aggregate == "count"
        assert stmt.from_table.alias == "p"
        assert len(stmt.joins) == 1
        assert stmt.group_by and stmt.having is not None
        assert stmt.order_by[0].descending is True
        assert stmt.limit == 10 and stmt.offset == 5

    def test_select_star_and_distinct(self):
        stmt = parse_sql("SELECT DISTINCT race FROM patients")
        assert stmt.distinct is True
        star = parse_sql("SELECT * FROM patients")
        assert star.items[0].star is True

    def test_subquery_in_from(self):
        stmt = parse_sql("SELECT * FROM (SELECT id FROM patients WHERE age > 60) t WHERE t.id > 1")
        assert stmt.from_table.subquery is not None
        assert stmt.from_table.alias == "t"

    def test_expressions(self):
        stmt = parse_sql(
            "SELECT CASE WHEN age >= 65 THEN 'senior' ELSE 'adult' END AS band, "
            "abs(score) FROM t WHERE name LIKE 'a%' AND id IN (1, 2, 3) AND x IS NOT NULL"
        )
        assert stmt.items[0].alias == "band"
        assert stmt.where is not None

    def test_insert_update_delete_create(self):
        insert = parse_sql("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert len(insert.rows) == 2 and insert.columns == ["a", "b"]
        update = parse_sql("UPDATE t SET a = a + 1 WHERE b = 'x'")
        assert "a" in update.assignments
        delete = parse_sql("DELETE FROM t WHERE a > 5")
        assert delete.where is not None
        create = parse_sql("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT NOT NULL, v FLOAT)")
        assert create.columns[0].primary_key and not create.columns[1].nullable
        index = parse_sql("CREATE UNIQUE INDEX idx ON t (name)")
        assert index.unique is True
        drop = parse_sql("DROP TABLE IF EXISTS t")
        assert drop.if_exists is True

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_sql("SELEC * FROM t")
        with pytest.raises(ParseError):
            parse_sql("SELECT * FROM t WHERE")
        with pytest.raises(ParseError):
            parse_sql("SELECT 'unterminated FROM t")
        with pytest.raises(ParseError):
            parse_sql("SELECT * FROM t extra garbage )")


# --------------------------------------------------------------------------- engine
@pytest.fixture()
def engine() -> RelationalEngine:
    e = RelationalEngine("pg")
    e.execute("CREATE TABLE patients (id INTEGER PRIMARY KEY, age INTEGER, race TEXT, stay FLOAT)")
    e.execute(
        "INSERT INTO patients VALUES (1, 64, 'white', 3.5), (2, 70, 'black', 7.2), "
        "(3, 55, 'asian', 2.0), (4, 80, 'white', 9.9), (5, 33, 'black', 1.1)"
    )
    e.execute("CREATE TABLE rx (pid INTEGER, drug TEXT, dose FLOAT)")
    e.execute(
        "INSERT INTO rx VALUES (1, 'aspirin', 81), (2, 'heparin', 5), (1, 'heparin', 4), "
        "(4, 'insulin', 10), (9, 'aspirin', 81)"
    )
    return e


class TestRelationalEngine:
    def test_capabilities_and_objects(self, engine):
        assert engine.capabilities & EngineCapability.SQL
        assert set(engine.list_objects()) == {"patients", "rx"}
        assert engine.has_object("PATIENTS")

    def test_filter_and_projection(self, engine):
        result = engine.execute("SELECT id, age FROM patients WHERE age > 60 ORDER BY age")
        assert [r["id"] for r in result] == [1, 2, 4]

    def test_aggregates_and_group_by(self, engine):
        result = engine.execute(
            "SELECT race, count(*) AS n, avg(stay) AS s FROM patients GROUP BY race ORDER BY race"
        )
        by_race = {r["race"]: r for r in result}
        assert by_race["white"]["n"] == 2
        assert by_race["black"]["s"] == pytest.approx((7.2 + 1.1) / 2)

    def test_having_with_alias_and_canonical_name(self, engine):
        result = engine.execute(
            "SELECT race, count(*) AS n FROM patients GROUP BY race HAVING count(*) >= 2"
        )
        assert {r["race"] for r in result} == {"white", "black"}

    def test_global_aggregate_on_empty_result(self, engine):
        result = engine.execute("SELECT count(*), max(age) FROM patients WHERE age > 200")
        assert result.rows[0].values[0] == 0
        assert result.rows[0].values[1] is None

    def test_join_inner_and_left(self, engine):
        inner = engine.execute(
            "SELECT p.id, r.drug FROM patients p JOIN rx r ON p.id = r.pid ORDER BY p.id"
        )
        assert len(inner) == 4
        left = engine.execute(
            "SELECT p.id, r.drug FROM patients p LEFT JOIN rx r ON p.id = r.pid ORDER BY p.id"
        )
        assert len(left) == 6  # four matches plus patients 3 and 5 padded with NULL drug
        missing = [r for r in left if r["drug"] is None]
        assert {r["p.id"] for r in missing} == {3, 5}

    def test_cross_join(self, engine):
        result = engine.execute("SELECT count(*) AS n FROM patients CROSS JOIN rx")
        assert result.rows[0]["n"] == 25

    def test_distinct_order_limit_offset(self, engine):
        result = engine.execute("SELECT DISTINCT race FROM patients ORDER BY race LIMIT 2 OFFSET 1")
        assert [r["race"] for r in result] == ["black", "white"]

    def test_subquery(self, engine):
        result = engine.execute(
            "SELECT count(*) AS n FROM (SELECT id FROM patients WHERE age > 60) t"
        )
        assert result.rows[0]["n"] == 3

    def test_scalar_functions_and_case(self, engine):
        result = engine.execute(
            "SELECT id, CASE WHEN age >= 65 THEN 'senior' ELSE 'adult' END AS band, "
            "round(stay) AS r FROM patients WHERE id = 4"
        )
        assert result.rows[0]["band"] == "senior"
        assert result.rows[0]["r"] == 10

    def test_index_scan_used_for_pk_lookup(self, engine):
        plan = engine.explain("SELECT * FROM patients WHERE id = 3")
        assert "IndexScan" in plan
        result = engine.execute("SELECT age FROM patients WHERE id = 3")
        assert result.rows[0]["age"] == 55

    def test_index_scan_range(self, engine):
        engine.execute("CREATE INDEX idx_age ON patients (age)")
        plan = engine.explain("SELECT * FROM patients WHERE age >= 70")
        assert "IndexScan" in plan
        result = engine.execute("SELECT id FROM patients WHERE age >= 70 ORDER BY id")
        assert [r["id"] for r in result] == [2, 4]

    def test_predicate_pushdown_in_join_plan(self, engine):
        plan = engine.explain(
            "SELECT p.id FROM patients p JOIN rx r ON p.id = r.pid WHERE p.age > 60 AND r.dose > 5"
        )
        # Both single-table predicates must appear below the join (on scans), not above it.
        join_line = next(line for line in plan.splitlines() if "Join" in line)
        assert "age" not in join_line and "dose" not in join_line

    def test_update_and_delete(self, engine):
        affected = engine.execute("UPDATE patients SET stay = stay + 1 WHERE race = 'white'")
        assert affected.rows[0]["affected_rows"] == 2
        assert engine.execute("SELECT stay FROM patients WHERE id = 1").rows[0]["stay"] == 4.5
        deleted = engine.execute("DELETE FROM patients WHERE age < 40")
        assert deleted.rows[0]["affected_rows"] == 1
        assert engine.table_row_count("patients") == 4

    def test_insert_with_column_list_fills_missing_with_null(self, engine):
        engine.execute("INSERT INTO patients (id, age) VALUES (10, 20)")
        row = engine.execute("SELECT * FROM patients WHERE id = 10").rows[0]
        assert row["race"] is None

    def test_primary_key_violation_through_sql(self, engine):
        with pytest.raises(ConstraintViolationError):
            engine.execute("INSERT INTO patients VALUES (1, 1, 'x', 1.0)")

    def test_missing_table_raises(self, engine):
        with pytest.raises(ObjectNotFoundError):
            engine.execute("SELECT * FROM nonexistent")

    def test_export_import_roundtrip(self, engine):
        relation = engine.export_relation("patients")
        other = RelationalEngine("copy")
        other.import_relation("patients", relation, primary_key=("id",))
        assert other.table_row_count("patients") == engine.table_row_count("patients")

    def test_select_without_from(self, engine):
        result = engine.execute("SELECT 1 + 2 AS three")
        assert result.rows[0]["three"] == 3


class TestTransactions:
    def test_commit_persists(self):
        engine = RelationalEngine()
        engine.execute("CREATE TABLE t (id INTEGER, v TEXT)")
        with engine.begin():
            engine.insert_rows("t", [(1, "a"), (2, "b")])
        assert engine.table_row_count("t") == 2

    def test_rollback_on_exception_restores_state(self):
        engine = RelationalEngine()
        engine.execute("CREATE TABLE t (id INTEGER, v TEXT)")
        engine.insert_rows("t", [(1, "a")])
        with pytest.raises(RuntimeError):
            with engine.begin():
                engine.insert_rows("t", [(2, "b")])
                engine.execute("UPDATE t SET v = 'changed' WHERE id = 1")
                raise RuntimeError("boom")
        assert engine.table_row_count("t") == 1
        assert engine.execute("SELECT v FROM t WHERE id = 1").rows[0]["v"] == "a"

    def test_rollback_restores_deletes(self):
        engine = RelationalEngine()
        engine.execute("CREATE TABLE t (id INTEGER, v TEXT)")
        engine.insert_rows("t", [(1, "a"), (2, "b")])
        txn = engine.begin()
        engine.execute("DELETE FROM t WHERE id = 2")
        txn.rollback()
        assert engine.table_row_count("t") == 2

    @staticmethod
    def pk_engine() -> RelationalEngine:
        engine = RelationalEngine()
        engine.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT)")
        engine.execute("INSERT INTO t VALUES (1, 'x')")
        return engine

    def test_rollback_of_insert_then_delete_leaves_no_row(self):
        engine = self.pk_engine()
        txn = engine.begin()
        engine.execute("INSERT INTO t VALUES (2, 'tmp')")
        engine.execute("DELETE FROM t WHERE a = 2")
        txn.rollback()
        assert [r.values for r in engine.execute("SELECT * FROM t").rows] == [(1, "x")]
        assert engine.table("t").index_lookup("__pk__", 2) == []

    def test_rollback_of_delete_restores_row_id_and_pk_index(self):
        engine = self.pk_engine()
        engine.execute("INSERT INTO t VALUES (2, 'y')")
        table = engine.table("t")
        ((row_id, _values),) = table.index_lookup("__pk__", 2)
        txn = engine.begin()
        engine.execute("DELETE FROM t WHERE a = 2")
        txn.rollback()
        assert table.get(row_id) == (2, "y")
        assert table.index_lookup("__pk__", 2) == [(row_id, (2, "y"))]
        assert [r.values for r in engine.execute("SELECT b FROM t WHERE a = 2").rows] == [("y",)]

    def test_rollback_of_insert_update_delete_leaves_no_row(self):
        engine = self.pk_engine()
        txn = engine.begin()
        engine.execute("INSERT INTO t VALUES (2, 'tmp')")
        engine.execute("UPDATE t SET b = 'changed' WHERE a = 2")
        engine.execute("DELETE FROM t WHERE a = 2")
        txn.rollback()
        assert [r.values for r in engine.execute("SELECT * FROM t").rows] == [(1, "x")]
        assert engine.table("t").index_lookup("__pk__", 2) == []

    def test_only_one_active_transaction(self):
        from repro.common.errors import TransactionError

        engine = RelationalEngine()
        engine.begin()
        with pytest.raises(TransactionError):
            engine.begin()
