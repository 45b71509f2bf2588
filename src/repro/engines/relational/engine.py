"""The relational engine facade: the PostgreSQL stand-in federated by BigDAWG.

Usage::

    engine = RelationalEngine("postgres")
    engine.execute("CREATE TABLE patients (id INTEGER PRIMARY KEY, age INTEGER)")
    engine.execute("INSERT INTO patients VALUES (1, 64)")
    result = engine.execute("SELECT count(*) FROM patients WHERE age > 60")
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Iterator, Sequence

from repro.common.cancellation import check_cancelled
from repro.common.errors import (
    DuplicateObjectError,
    ExecutionError,
    ObjectNotFoundError,
)
from repro.common.expressions import compile_predicate
from repro.common.schema import Column, ColumnarRelation, Relation, Row, Schema, TableDefinition
from repro.engines.base import (
    DEFAULT_CHUNK_ROWS,
    Engine,
    EngineCapability,
)
from repro.engines.relational.executor import Executor
from repro.engines.relational.optimizer import Optimizer
from repro.observability.profile import PlanProfiler, SlowQueryLog
from repro.engines.relational.planner import (
    JoinNode,
    LogicalPlan,
    Planner,
    TableStatisticsProvider,
)
from repro.engines.relational.statistics import StatisticsCatalog, TableStats
from repro.engines.relational.vectorized import BatchExecutor
from repro.engines.relational.sql.ast import (
    CreateIndexStatement,
    CreateTableStatement,
    DeleteStatement,
    DropTableStatement,
    InsertStatement,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from repro.engines.relational.sql.parser import parse_sql
from repro.engines.relational.storage import HeapTable
from repro.engines.relational.transactions import Transaction, TransactionManager


#: Valid values for :attr:`RelationalEngine.execution_mode`.
EXECUTION_MODES = ("vectorized", "row")


class RelationalEngine(Engine, TableStatisticsProvider):
    """An in-process SQL engine over row-oriented heap tables.

    SELECT statements run on one of two executors, selected by
    ``execution_mode``:

    * ``"vectorized"`` (default) — the columnar batch pipeline with one-time
      expression compilation (:mod:`repro.engines.relational.vectorized`);
    * ``"row"`` — the classic row-at-a-time volcano executor.

    Both return identical results; the knob exists so benchmarks (and the
    runtime's metrics) can compare the two paths.
    """

    kind = "relational"

    def __init__(self, name: str = "postgres", execution_mode: str = "vectorized") -> None:
        super().__init__(name)
        self._tables: dict[str, HeapTable] = {}
        self._planner = Planner(self)
        self._executor = Executor(self)
        self._batch_executor = BatchExecutor(self, row_executor=self._executor)
        self._transactions = TransactionManager(self)
        self._execution_mode = "vectorized"
        self.execution_mode = execution_mode
        #: Table/column statistics (row counts, NDV, null fractions, widths)
        #: maintained incrementally on DML and read by the optimizer pass.
        self.statistics = StatisticsCatalog(self)
        #: Whether SELECT plans run through the statistics-driven optimizer
        #: (projection pushdown, byte-based build side, conjunct ordering).
        #: Off, plans execute exactly as the rule-based planner built them —
        #: the baseline the wide-join benchmark measures against.
        self.optimizer_enabled = True
        #: Whether grouped aggregation streams batches through the shared
        #: incremental key dictionary (peak memory O(batch + groups)); off,
        #: the legacy path materializes the whole input as one block.
        self.streaming_groupby = True
        #: SELECTs served per executor path, for the runtime's metrics.
        self.executions_by_mode: dict[str, int] = {mode: 0 for mode in EXECUTION_MODES}
        #: Row-executor fallbacks taken by the batch pipeline, keyed by the
        #: reason string EXPLAIN shows (e.g. "non-equi join"); surfaced by
        #: the runtime as ``relational_fallback_reasons``.
        self.fallback_reasons: dict[str, int] = {}
        #: Total columns the optimizer pruned below joins/aggregates, and
        #: grouped-aggregation executions per path ("stream" vs "block" vs
        #: per-row), for the runtime's metrics snapshot.
        self.columns_pruned = 0
        self.groupby_paths: dict[str, int] = {}
        #: Largest resident row footprint (batch + groups) any streaming
        #: group-by reached — or the whole block size when the block path
        #: runs, which is exactly what the CI memory guard watches for.
        self.peak_groupby_resident_rows = 0
        #: Build-side memory budget in (estimated) bytes for hash joins;
        #: None disables the budget.  Over budget, the join switches to the
        #: radix-partitioned spill path instead of pinning the build block.
        self.join_memory_budget: int | None = None
        #: Fan-out of the spill path's radix partitioning (and its recursion).
        self.join_spill_partitions = 8
        #: Batch-pipeline observability, surfaced by the runtime metrics:
        #: scan morsels executed, build partitions spilled to disk, the
        #: largest estimated resident build-side footprint, and columns
        #: dropped from group-by representative rows.
        self.morsels_executed = 0
        self.partitions_spilled = 0
        self.peak_build_bytes = 0
        self.representative_columns_pruned = 0
        #: SELECTs slower than ``slow_queries.threshold_s`` are logged here
        #: with their SQL and wall time (free until a threshold is set).
        self.slow_queries = SlowQueryLog()

    def record_fallback(self, reason: str) -> None:
        """Count one batch-pipeline fallback to the row executor."""
        self.fallback_reasons[reason] = self.fallback_reasons.get(reason, 0) + 1

    def record_groupby(self, path: str, peak_rows: int) -> None:
        """Count one grouped aggregation by path and track peak resident rows."""
        self.groupby_paths[path] = self.groupby_paths.get(path, 0) + 1
        if peak_rows > self.peak_groupby_resident_rows:
            self.peak_groupby_resident_rows = peak_rows

    def record_morsels(self, count: int) -> None:
        """Count scan morsels (bounded ColumnBatches) emitted into pipelines."""
        self.morsels_executed += count

    def record_spill(self, partitions: int) -> None:
        """Count join build partitions written to temp files."""
        self.partitions_spilled += partitions

    def record_build_bytes(self, nbytes: int) -> None:
        """Track the largest estimated resident join build footprint."""
        if nbytes > self.peak_build_bytes:
            self.peak_build_bytes = nbytes

    def record_representative_prune(self, count: int) -> None:
        """Count columns dropped from group-by representative rows."""
        self.representative_columns_pruned += count

    @property
    def execution_mode(self) -> str:
        """Which executor serves SELECTs: ``"vectorized"`` or ``"row"``."""
        return self._execution_mode

    @execution_mode.setter
    def execution_mode(self, mode: str) -> None:
        if mode not in EXECUTION_MODES:
            raise ValueError(
                f"execution_mode must be one of {EXECUTION_MODES}, got {mode!r}"
            )
        self._execution_mode = mode

    # ------------------------------------------------------------- Engine API
    @property
    def capabilities(self) -> EngineCapability:
        return EngineCapability.SQL | EngineCapability.TRANSACTIONS

    def list_objects(self) -> list[str]:
        return sorted(self._tables)

    def has_object(self, name: str) -> bool:
        return name.lower() in self._tables

    def export_relation(self, name: str) -> Relation:
        table = self.table(name)
        relation = Relation(table.schema)
        for _row_id, values in table.scan():
            relation.rows.append(Row(table.schema, values))
        return relation

    def import_relation(self, name: str, relation: Relation, **options: Any) -> None:
        self.import_chunks(name, relation.schema, [relation], **options)

    def drop_object(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise ObjectNotFoundError(f"table {name!r} does not exist")
        del self._tables[key]
        self.statistics.invalidate(name)

    def rename_object(self, old_name: str, new_name: str,
                      replace: bool = True) -> None:
        """O(1) rename: re-key the heap table (the CAST commit primitive)."""
        old_key, new_key = old_name.lower(), new_name.lower()
        if old_key == new_key:
            return
        table = self.table(old_name)
        if new_key in self._tables and not replace:
            raise DuplicateObjectError(f"table {new_name!r} already exists")
        del self._tables[old_key]
        table.name = new_name
        self._tables[new_key] = table
        self.statistics.invalidate(old_name)
        self.statistics.invalidate(new_name)

    def export_schema(self, name: str) -> Schema:
        return self.table(name).schema

    def export_chunks(self, name: str, chunk_size: int = DEFAULT_CHUNK_ROWS) -> Iterator[Relation]:
        """Stream the table scan as bounded *columnar* chunks.

        Each chunk is a :class:`~repro.common.schema.ColumnarRelation` over
        slices of the table's scan image — no per-row ``Row`` objects and no
        transpose — so a CAST whose codec reads columns (the binary columnar
        layout) moves data from storage to the wire zero-conversion.  The
        slices are handed over as lists (one C-level copy each) because the
        codecs iterate them in Python.  The image is captured here, so the
        export is a snapshot of the table as of this call even if writes
        land while it streams.
        """
        table = self.table(name)
        schema = table.schema
        slices = table.scan_image().slices(chunk_size)

        def generate() -> Iterator[Relation]:
            for length, columns in slices:
                check_cancelled()  # chunk boundary: cancelled exports stop here
                yield ColumnarRelation(schema, [column.tolist() for column in columns], length)

        return generate()

    def import_chunks(self, name: str, schema: Schema, chunks: Iterable[Relation],
                      **options: Any) -> None:
        """Build the destination table one chunk at a time, then publish it."""
        primary_key = options.get("primary_key", ())
        replace = options.get("replace", True)
        key = name.lower()
        if key in self._tables and not replace:
            raise DuplicateObjectError(f"table {name!r} already exists")
        table = HeapTable(name, schema, primary_key)
        for chunk in chunks:
            for row in chunk:
                table.insert(row.values)
        self._tables[key] = table
        self.statistics.invalidate(name)

    # -------------------------------------------------------------- statistics
    def table(self, name: str) -> HeapTable:
        key = name.lower()
        if key not in self._tables:
            raise ObjectNotFoundError(f"table {name!r} does not exist in engine {self.name!r}")
        return self._tables[key]

    def table_row_count(self, table: str) -> int:
        return self.table(table).row_count

    def table_indexes(self, table: str) -> dict[str, tuple[str, ...]]:
        return self.table(table).indexes()

    def table_columns(self, table: str) -> list[str]:
        return self.table(table).schema.names

    def table_stats(self, table: str) -> TableStats | None:
        """Full table statistics for the optimizer (lazily analyzed)."""
        return self.statistics.table_stats(table)

    # ------------------------------------------------------------------ DDL/DML
    def create_table(
        self,
        name: str,
        schema: Schema,
        primary_key: Sequence[str] = (),
        if_not_exists: bool = False,
    ) -> TableDefinition:
        """Create a table from a schema object (programmatic path, used by loaders)."""
        key = name.lower()
        if key in self._tables:
            if if_not_exists:
                return TableDefinition(name, schema, tuple(primary_key), self.name)
            raise DuplicateObjectError(f"table {name!r} already exists")
        self._tables[key] = HeapTable(name, schema, primary_key)
        self.statistics.invalidate(name)
        self.bump_write_version()
        return TableDefinition(name, schema, tuple(primary_key), self.name)

    def insert_rows(self, table_name: str, rows: Sequence[Sequence[Any]]) -> int:
        """Bulk insert; returns the number of rows inserted."""
        table = self.table(table_name)
        txn = self._transactions.active_transaction
        count = 0
        for values in rows:
            row_id = table.insert(values)
            if txn is not None:
                txn.record_insert(table_name, row_id)
            count += 1
        self.statistics.note_mutation(table_name, count)
        self.bump_write_version()
        return count

    def create_index(
        self, index_name: str, table_name: str, columns: Sequence[str], unique: bool = False
    ) -> None:
        self.table(table_name).create_index(index_name, columns, unique)
        self.bump_write_version()

    # ------------------------------------------------------------------ query
    def execute(self, sql: str) -> Relation:
        """Parse, plan and execute one SQL statement.

        DDL and DML statements return a one-column relation with the affected
        row count; SELECT returns its result set.
        """
        check_cancelled()
        statement = parse_sql(sql)
        if self.slow_queries.enabled and isinstance(statement, SelectStatement):
            started = time.perf_counter()
            result = self.execute_statement(statement)
            self.slow_queries.observe(
                sql, time.perf_counter() - started,
                engine=self.name, mode=self._execution_mode,
            )
            return result
        return self.execute_statement(statement)

    def execute_statement(self, statement: Statement) -> Relation:
        self.queries_executed += 1
        if isinstance(statement, SelectStatement):
            plan = self._optimized_plan(statement)
            mode = self._execution_mode
            self.executions_by_mode[mode] += 1
            if mode == "vectorized":
                return self._batch_executor.execute(plan)
            return self._executor.execute(plan)
        # Everything below is DDL or DML: advance the write version so cached
        # results depending on this engine's state are invalidated.
        self.bump_write_version()
        if isinstance(statement, CreateTableStatement):
            return self._execute_create_table(statement)
        if isinstance(statement, DropTableStatement):
            return self._execute_drop_table(statement)
        if isinstance(statement, CreateIndexStatement):
            self.create_index(statement.index, statement.table, statement.columns, statement.unique)
            return self._count_relation(0)
        if isinstance(statement, InsertStatement):
            return self._execute_insert(statement)
        if isinstance(statement, UpdateStatement):
            return self._execute_update(statement)
        if isinstance(statement, DeleteStatement):
            return self._execute_delete(statement)
        raise ExecutionError(f"unsupported statement type: {type(statement).__name__}")

    def plan(self, sql: str) -> LogicalPlan:
        """The (optimized) logical plan a SELECT would execute — the hook
        benchmarks and tests use to inspect pruning and build-side choices.
        Inspection only: the ``columns_pruned`` metric counts executed
        queries, not plans looked at."""
        statement = parse_sql(sql)
        if not isinstance(statement, SelectStatement):
            raise ExecutionError("only SELECT statements are planned")
        return self._optimized_plan(statement, record=False)

    def _optimized_plan(
        self, statement: SelectStatement, record: bool = True
    ) -> LogicalPlan:
        plan = self._planner.plan_select(statement)
        if not self.optimizer_enabled:
            return plan
        result = Optimizer(self).optimize(plan)
        if record:
            self.columns_pruned += result.columns_pruned
        return result.plan

    def explain(self, sql: str, analyze: bool = False) -> str:
        """Return the optimized plan for a SELECT statement as indented text.

        The first line reports the engine's execution mode and the second a
        ``Stats(...)`` summary of every referenced table (live row count and
        estimated bytes from the statistics layer).  In vectorized mode
        every operator is tagged ``[vectorized]`` or — when it falls back to
        the row executor — ``[row: <reason>]``; optimizer-inserted prunes
        render as ``Project(kept...) [pruned: a,b,c]``.

        With ``analyze=True`` the query is actually executed and every
        operator is additionally annotated with its estimated vs. actual
        row count, batch count and wall time — ``(estimated=N rows,
        actual=M rows, batches=B, time=X.XXXms)`` — followed by a
        ``Total(...)`` footer, in the spirit of ``EXPLAIN ANALYZE``.
        """
        statement = parse_sql(sql)
        if not isinstance(statement, SelectStatement):
            raise ExecutionError("EXPLAIN is only supported for SELECT statements")
        plan = self._planner.plan_select(statement)
        tables: list[str] = []
        if self.optimizer_enabled:
            result = Optimizer(self).optimize(plan)
            plan, tables = result.plan, result.tables
        header = f"ExecutionMode({self._execution_mode})"
        stats_line = self._stats_line(tables)
        if stats_line:
            header = f"{header}\n{stats_line}"
        profiler: PlanProfiler | None = None
        total_s: float | None = None
        result_rows: int | None = None
        if analyze:
            profiler = PlanProfiler(plan, estimator=self.estimated_plan_rows)
            mode = self._execution_mode
            self._batch_executor.profiler = profiler
            self._executor.profiler = profiler
            started = time.perf_counter()
            try:
                if mode == "vectorized":
                    result = self._batch_executor.execute(plan)
                else:
                    result = self._executor.execute(plan)
            finally:
                self._batch_executor.profiler = None
                self._executor.profiler = None
            total_s = time.perf_counter() - started
            result_rows = len(result.rows)
            self.queries_executed += 1
            self.executions_by_mode[mode] += 1

        def annotate(node):
            parts: list[str] = []
            if self._execution_mode == "vectorized":
                reason = BatchExecutor.fallback_reason(node)
                if reason is not None:
                    parts.append(f"[row: {reason}]")
                else:
                    tag = "[vectorized]"
                    if isinstance(node, JoinNode) and self.join_memory_budget is not None:
                        build = (
                            node.left
                            if node.join_type == "inner" and node.build_side != "right"
                            else node.right
                        )
                        estimate = self.estimated_plan_bytes(build)
                        if estimate is not None and estimate > self.join_memory_budget:
                            tag = f"{tag} [spill]"
                    parts.append(tag)
            if profiler is not None:
                parts.append(profiler.annotation(node))
            return " ".join(parts)

        if self._execution_mode == "vectorized" or profiler is not None:
            text = header + "\n" + plan.explain(annotate=annotate)
        else:
            text = header + "\n" + plan.explain()
        if total_s is not None:
            text = (
                f"{text.rstrip()}\n"
                f"Total(rows={result_rows}, time={total_s * 1000:.3f}ms)\n"
            )
        return text

    def estimated_plan_rows(self, plan) -> int | None:
        """Estimated output row count of a plan subtree, or None if unknown.

        Same facade pattern as :meth:`estimated_plan_bytes` — EXPLAIN
        ANALYZE uses it to print estimated vs. actual cardinality per
        operator without importing the optimizer.
        """
        try:
            return Optimizer(self)._estimate_rows(plan)
        except Exception:
            return None

    def estimated_plan_bytes(self, plan) -> int | None:
        """Estimated materialized bytes of a plan subtree, or None if unknown.

        Thin facade over the optimizer's cardinality model so the executor's
        join memory budget can consult statistics without importing the
        optimizer directly.
        """
        try:
            return Optimizer(self)._estimate_bytes(plan)
        except Exception:
            return None

    def _stats_line(self, tables: list[str]) -> str | None:
        """The EXPLAIN ``Stats(...)`` line for the referenced base tables."""
        parts = []
        for table in tables:
            stats = self.statistics.table_stats(table)
            if stats is None:
                continue
            parts.append(
                f"{table}: rows={stats.row_count}, bytes~{stats.estimated_bytes}"
            )
        if not parts:
            return None
        return f"Stats({'; '.join(parts)})"

    # ----------------------------------------------------------------- private
    def _execute_create_table(self, statement: CreateTableStatement) -> Relation:
        columns = [Column(c.name, c.dtype, c.nullable) for c in statement.columns]
        primary_key = tuple(c.name for c in statement.columns if c.primary_key)
        self.create_table(
            statement.table, Schema(columns), primary_key, statement.if_not_exists
        )
        return self._count_relation(0)

    def _execute_drop_table(self, statement: DropTableStatement) -> Relation:
        key = statement.table.lower()
        if key not in self._tables:
            if statement.if_exists:
                return self._count_relation(0)
            raise ObjectNotFoundError(f"table {statement.table!r} does not exist")
        del self._tables[key]
        self.statistics.invalidate(statement.table)
        return self._count_relation(0)

    def _execute_insert(self, statement: InsertStatement) -> Relation:
        table = self.table(statement.table)
        txn = self._transactions.active_transaction
        count = 0
        for expressions in statement.rows:
            literal_values = [expr.evaluate(None) if _is_constant(expr) else None for expr in expressions]
            if statement.columns:
                values = [None] * len(table.schema)
                for column, value in zip(statement.columns, literal_values):
                    values[table.schema.index_of(column)] = value
            else:
                values = literal_values
            row_id = table.insert(values)
            if txn is not None:
                txn.record_insert(statement.table, row_id)
            count += 1
        self.statistics.note_mutation(statement.table, count)
        return self._count_relation(count)

    def _execute_update(self, statement: UpdateStatement) -> Relation:
        table = self.table(statement.table)
        txn = self._transactions.active_transaction
        matching = table.apply_filter_values(
            compile_predicate(statement.where, table.schema)
        )
        assignments = [
            (table.schema.index_of(column), expression.compile(table.schema))
            for column, expression in statement.assignments.items()
        ]
        for row_id in matching:
            old = table.get(row_id)
            new_values = list(old)
            for index, expression in assignments:
                new_values[index] = expression(old)
            if txn is not None:
                txn.record_update(statement.table, row_id, old)
            table.update(row_id, new_values)
        self.statistics.note_mutation(statement.table, len(matching))
        return self._count_relation(len(matching))

    def _execute_delete(self, statement: DeleteStatement) -> Relation:
        table = self.table(statement.table)
        txn = self._transactions.active_transaction
        matching = table.apply_filter_values(
            compile_predicate(statement.where, table.schema)
        )
        for row_id in matching:
            if txn is not None:
                txn.record_delete(statement.table, row_id, table.get(row_id))
            table.delete(row_id)
        self.statistics.note_mutation(statement.table, len(matching))
        return self._count_relation(len(matching))

    @staticmethod
    def _count_relation(count: int) -> Relation:
        schema = Schema([Column("affected_rows", "integer")])
        relation = Relation(schema)
        relation.append([count])
        return relation

    # ------------------------------------------------------------ transactions
    def begin(self) -> Transaction:
        """Start a transaction; use as a context manager for commit/rollback."""
        return self._transactions.begin()

    def _finish_transaction(self, txn: Transaction) -> None:
        self._transactions.finish(txn)


def _is_constant(expr: Any) -> bool:
    """INSERT values must be constant-foldable (no column references)."""
    return not expr.referenced_columns()
