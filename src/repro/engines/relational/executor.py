"""Physical execution of logical plans (volcano / iterator style, materialized).

Each ``_execute_*`` method consumes its children's output relations and
produces a new relation.  This keeps the engine simple while preserving the
cost structure the benchmarks care about: sequential scans touch every row,
index scans touch only matching rows, hash joins build on the smaller side.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

from repro.common.errors import ExecutionError
from repro.common.expressions import ColumnRef, Expression, evaluate_predicate
from repro.common.schema import Column, Relation, Row, Schema
from repro.common.types import DataType, infer_type
from repro.engines.relational.functions import make_aggregate
from repro.engines.relational.planner import (
    AggregateNode,
    FilterNode,
    IndexScanNode,
    JoinNode,
    LimitNode,
    LogicalPlan,
    ProjectNode,
    PruneNode,
    ScanNode,
    SortNode,
    SubqueryNode,
)
from repro.engines.relational.sql.ast import SelectItem

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.relational.engine import RelationalEngine


_DUAL_SCHEMA = Schema([Column("__dual__", DataType.INTEGER)])


class Executor:
    """Executes logical plans against a :class:`RelationalEngine`'s storage."""

    def __init__(self, engine: "RelationalEngine") -> None:
        self._engine = engine
        #: Installed by ``RelationalEngine.explain(analyze=True)`` for the
        #: duration of one query; None skips profiling entirely.
        self.profiler = None

    def execute(self, plan: LogicalPlan) -> Relation:
        profiler = self.profiler
        if profiler is None:
            return self._dispatch(plan)
        entry = profiler.entry(plan)
        if entry is None:
            return self._dispatch(plan)
        # Inclusive time: the row executor materializes bottom-up, so each
        # node's elapsed time covers its whole subtree (children record
        # their own smaller inclusive totals as the recursion returns).
        started = time.perf_counter()
        relation = self._dispatch(plan)
        entry.record(len(relation.rows), time.perf_counter() - started, mode="row")
        return relation

    def _dispatch(self, plan: LogicalPlan) -> Relation:
        if isinstance(plan, ScanNode):
            return self._execute_scan(plan)
        if isinstance(plan, IndexScanNode):
            return self._execute_index_scan(plan)
        if isinstance(plan, SubqueryNode):
            return self._execute_subquery(plan)
        if isinstance(plan, FilterNode):
            return self._execute_filter(plan)
        if isinstance(plan, JoinNode):
            return self._execute_join(plan)
        if isinstance(plan, AggregateNode):
            return self._execute_aggregate(plan)
        if isinstance(plan, ProjectNode):
            return self._execute_project(plan)
        if isinstance(plan, PruneNode):
            return self._execute_prune(plan)
        if isinstance(plan, SortNode):
            return self._execute_sort(plan)
        if isinstance(plan, LimitNode):
            return self._execute_limit(plan)
        raise ExecutionError(f"unknown plan node: {type(plan).__name__}")

    # ------------------------------------------------------------------ scans
    def _execute_scan(self, node: ScanNode) -> Relation:
        if node.table == "__dual__":
            relation = Relation(_DUAL_SCHEMA)
            relation.append([0])
            return relation
        table = self._engine.table(node.table)
        schema = self._qualified_schema(table.schema, node.alias or node.table)
        relation = Relation(schema)
        if node.predicate is None:
            # No predicate: bulk-wrap the stored tuples, skipping the
            # per-row generator and predicate machinery entirely.
            relation.rows.extend(Row(schema, values) for values in table.scan_values())
            return relation
        for values in table.scan_values():
            row = Row(schema, values)
            if evaluate_predicate(node.predicate, row):
                relation.rows.append(row)
        return relation

    def _execute_index_scan(self, node: IndexScanNode) -> Relation:
        table = self._engine.table(node.table)
        schema = self._qualified_schema(table.schema, node.alias or node.table)
        relation = Relation(schema)
        if node.equals is not None:
            matches = table.index_lookup(node.index_name, node.equals)
        else:
            matches = table.index_range(
                node.index_name,
                low=node.low,
                high=node.high,
                include_low=node.include_low,
                include_high=node.include_high,
            )
        for _row_id, values in matches:
            row = Row(schema, values)
            if node.residual is None or evaluate_predicate(node.residual, row):
                relation.rows.append(row)
        return relation

    def _execute_subquery(self, node: SubqueryNode) -> Relation:
        inner = self.execute(node.plan)
        schema = self._qualified_schema(inner.schema, node.alias)
        result = Relation(schema)
        for row in inner:
            result.rows.append(Row(schema, row.values))
        return result

    @staticmethod
    def _qualified_schema(schema: Schema, qualifier: str) -> Schema:
        """Expose both bare and table-qualified column names via suffix matching."""
        # Column.matches already supports "t.col" vs "col"; keep bare names but
        # prefix them with the qualifier so self-joins stay unambiguous.
        names = schema.names
        if any("." in n for n in names):
            return schema
        return Schema(
            [Column(f"{qualifier}.{c.name}", c.dtype, c.nullable) for c in schema]
        )

    # ---------------------------------------------------------------- operators
    def _execute_filter(self, node: FilterNode) -> Relation:
        child = self.execute(node.child)
        result = Relation(child.schema)
        for row in child:
            if evaluate_predicate(node.predicate, row):
                result.rows.append(row)
        return result

    def _execute_join(self, node: JoinNode) -> Relation:
        left = self.execute(node.left)
        right = self.execute(node.right)
        joined_schema = left.schema.concat(right.schema)
        if node.strategy == "hash" and node.condition is not None:
            keys = self._equi_join_keys(node.condition, left.schema, right.schema)
            if keys:
                return self._hash_join(node, left, right, joined_schema, keys)
        # Nested loop (cross joins and non-equi conditions, all join types).
        result = Relation(joined_schema)
        track_right = node.join_type in ("right", "full")
        right_matched = [False] * len(right.rows) if track_right else None
        for left_row in left:
            matched = False
            for r_index, right_row in enumerate(right.rows):
                candidate = Row(joined_schema, left_row.values + right_row.values)
                if node.condition is None or evaluate_predicate(node.condition, candidate):
                    result.rows.append(candidate)
                    matched = True
                    if right_matched is not None:
                        right_matched[r_index] = True
            if node.join_type in ("left", "full") and not matched:
                padding = tuple([None] * len(right.schema))
                result.rows.append(Row(joined_schema, left_row.values + padding))
        if right_matched is not None:
            padding = tuple([None] * len(left.schema))
            for r_index, right_row in enumerate(right.rows):
                if not right_matched[r_index]:
                    result.rows.append(Row(joined_schema, padding + right_row.values))
        return result

    def _hash_join(
        self,
        node: JoinNode,
        left: Relation,
        right: Relation,
        joined_schema: Schema,
        keys: list[tuple[str, str]],
    ) -> Relation:
        result = Relation(joined_schema)
        left_cols = [pair[0] for pair in keys]
        right_cols = [pair[1] for pair in keys]
        # Honor the planner's build-side hint; outer joins always build on
        # the right so the probe (and therefore the output) stays left-major.
        build_on_left = node.join_type == "inner" and node.build_side != "right"
        if build_on_left:
            build_rel, build_cols = left, left_cols
            probe_rel, probe_cols = right, right_cols
        else:
            build_rel, build_cols = right, right_cols
            probe_rel, probe_cols = left, left_cols
        build: dict[tuple, list[tuple[int, Row]]] = {}
        for index, row in enumerate(build_rel.rows):
            key = tuple(row[c] for c in build_cols)
            build.setdefault(key, []).append((index, row))
        track_build = node.join_type in ("right", "full")
        build_matched = [False] * len(build_rel.rows) if track_build else None
        pad_probe = node.join_type in ("left", "full")
        build_padding = tuple([None] * len(build_rel.schema))
        for probe_row in probe_rel:
            key = tuple(probe_row[c] for c in probe_cols)
            matched = False
            for index, build_row in build.get(key, ()):
                if build_on_left:
                    values = build_row.values + probe_row.values
                else:
                    values = probe_row.values + build_row.values
                candidate = Row(joined_schema, values)
                if node.condition is None or evaluate_predicate(node.condition, candidate):
                    result.rows.append(candidate)
                    matched = True
                    if build_matched is not None:
                        build_matched[index] = True
            if pad_probe and not matched:
                result.rows.append(
                    Row(joined_schema, probe_row.values + build_padding)
                )
        if build_matched is not None:
            probe_padding = tuple([None] * len(probe_rel.schema))
            for index, build_row in enumerate(build_rel.rows):
                if not build_matched[index]:
                    result.rows.append(
                        Row(joined_schema, probe_padding + build_row.values)
                    )
        return result

    @staticmethod
    def _equi_join_keys(
        condition: Expression, left_schema: Schema, right_schema: Schema
    ) -> list[tuple[str, str]]:
        """Extract (left column, right column) pairs from equality conjuncts."""
        keys, _residual = Executor.split_join_condition(condition, left_schema, right_schema)
        return keys

    @staticmethod
    def split_join_condition(
        condition: Expression, left_schema: Schema, right_schema: Schema
    ) -> tuple[list[tuple[str, str]], list[Expression]]:
        """Split a join condition into equi-key pairs and residual conjuncts.

        The key pairs are ``(left column, right column)`` equality conjuncts
        usable for hashing/key-encoding; everything else (non-equi conjuncts,
        same-side equalities) is returned as residual predicates the join
        must still evaluate per candidate.  Shared by both executors so the
        two paths agree on what "the join key" means.
        """
        from repro.common.expressions import BinaryOp, split_conjuncts

        keys: list[tuple[str, str]] = []
        residual: list[Expression] = []
        for conjunct in split_conjuncts(condition):
            if (
                isinstance(conjunct, BinaryOp)
                and conjunct.op in ("=", "==")
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)
            ):
                a, b = conjunct.left.name, conjunct.right.name
                if left_schema.has_column(a) and right_schema.has_column(b):
                    keys.append((a, b))
                    continue
                if left_schema.has_column(b) and right_schema.has_column(a):
                    keys.append((b, a))
                    continue
            residual.append(conjunct)
        return keys, residual

    def _execute_prune(self, node: PruneNode) -> Relation:
        """Optimizer-inserted narrowing: keep only the named columns."""
        child = self.execute(node.child)
        indices = [child.schema.index_of(name) for name in node.columns]
        schema = child.schema.project(node.columns)
        result = Relation(schema)
        result.rows.extend(
            Row(schema, tuple(row.values[i] for i in indices)) for row in child.rows
        )
        return result

    def _execute_project(self, node: ProjectNode) -> Relation:
        child = self.execute(node.child)
        columns: list[Column] = []
        for item in node.items:
            if item.star:
                columns.extend(child.schema.columns)
            else:
                dtype = self._expression_type(item.expression, child)
                columns.append(Column(item.output_name, dtype))
        schema = Schema(self._dedupe(columns))
        result = Relation(schema)
        seen: set[tuple] = set()
        for row in child:
            values: list[Any] = []
            for item in node.items:
                if item.star:
                    values.extend(row.values)
                else:
                    values.append(item.expression.evaluate(row))
            candidate = tuple(values)
            if node.distinct:
                if candidate in seen:
                    continue
                seen.add(candidate)
            result.rows.append(Row(schema, candidate))
        return result

    def _execute_aggregate(self, node: AggregateNode) -> Relation:
        child = self.execute(node.child)
        group_exprs = node.group_by
        groups: dict[tuple, dict[int, Any]] = {}
        group_rows: dict[tuple, Row] = {}
        having_items = getattr(node, "having_items", [])
        agg_items = [(i, item) for i, item in enumerate(node.items) if item.aggregate]
        agg_items += [
            (len(node.items) + j, item) for j, item in enumerate(having_items)
        ]
        for row in child:
            key = tuple(expr.evaluate(row) for expr in group_exprs)
            if key not in groups:
                groups[key] = {
                    i: make_aggregate(
                        item.aggregate,
                        count_star=(item.expression is None),
                        distinct=item.distinct,
                    )
                    for i, item in agg_items
                }
                group_rows[key] = row
            for i, item in agg_items:
                value = 1 if item.expression is None else item.expression.evaluate(row)
                groups[key][i].add(value)
        # A global aggregate over zero rows still yields one output row.
        if not groups and not group_exprs:
            groups[()] = {
                i: make_aggregate(
                    item.aggregate,
                    count_star=(item.expression is None),
                    distinct=item.distinct,
                )
                for i, item in agg_items
            }
            group_rows[()] = None  # type: ignore[assignment]

        columns = []
        for item in node.items:
            if item.aggregate:
                dtype = DataType.FLOAT if item.aggregate in ("avg", "stddev") else DataType.FLOAT
                if item.aggregate == "count":
                    dtype = DataType.INTEGER
                columns.append(Column(item.output_name, dtype))
            else:
                dtype = self._expression_type(item.expression, child)
                columns.append(Column(item.output_name, dtype))
        schema = Schema(self._dedupe(columns))
        having_schema = self._having_schema(schema, node.items, having_items)
        result = Relation(schema)
        for key, accumulators in groups.items():
            values: list[Any] = []
            representative = group_rows[key]
            for i, item in enumerate(node.items):
                if item.aggregate:
                    values.append(accumulators[i].result())
                else:
                    if representative is None:
                        values.append(None)
                    else:
                        values.append(item.expression.evaluate(representative))
            out_row = Row(schema, tuple(values))
            if node.having is not None:
                # HAVING may reference aggregate outputs either by alias or by
                # their canonical rendering, e.g. "count(*)"; expose both,
                # then append HAVING-only aggregates (computed but not output).
                having_values = tuple(
                    accumulators[len(node.items) + j].result()
                    for j in range(len(having_items))
                )
                having_row = Row(
                    having_schema, tuple(values) + tuple(values) + having_values
                )
                if not evaluate_predicate(node.having, having_row):
                    continue
            result.rows.append(out_row)
        return result

    @staticmethod
    def _having_schema(schema: Schema, items: list, having_items: list = ()) -> Schema:
        """Schema exposing output columns twice (alias and canonical name),
        plus trailing columns for HAVING-only aggregates."""
        canonical = []
        used = {c.name.lower() for c in schema.columns}
        for i, item in enumerate(items):
            if item.aggregate:
                inner = "*" if item.expression is None else item.expression.to_sql()
                name = f"{item.aggregate}({inner})"
            else:
                name = item.output_name
            if name.lower() in used:
                name = f"__having_{i}__"
            used.add(name.lower())
            canonical.append(Column(name, schema.columns[min(i, len(schema.columns) - 1)].dtype))
        for j, item in enumerate(having_items):
            inner = "*" if item.expression is None else item.expression.to_sql()
            name = f"{item.aggregate}({inner})"
            if name.lower() in used:
                name = f"__having_only_{j}__"
            used.add(name.lower())
            dtype = DataType.INTEGER if item.aggregate == "count" else DataType.FLOAT
            canonical.append(Column(name, dtype))
        return Schema(list(schema.columns) + canonical)

    def _execute_sort(self, node: SortNode) -> Relation:
        child = self.execute(node.child)

        def sort_key(row: Row) -> tuple:
            parts = []
            for item in node.order_by:
                value = item.expression.evaluate(row)
                parts.append((value is None, value))
            return tuple(parts)

        # Python's sort is stable, so apply keys right-to-left for mixed directions.
        rows = list(child.rows)
        for item in reversed(node.order_by):
            def key(row: Row, item=item) -> tuple:
                value = item.expression.evaluate(row)
                return (value is None, value)

            rows.sort(key=key, reverse=item.descending)
        result = Relation(child.schema)
        result.rows.extend(rows)
        return result

    def _execute_limit(self, node: LimitNode) -> Relation:
        child = self.execute(node.child)
        start = node.offset or 0
        end = None if node.limit is None else start + node.limit
        result = Relation(child.schema)
        result.rows.extend(child.rows[start:end])
        return result

    # ------------------------------------------------------------------ helpers
    def _expression_type(self, expression: Expression | None, child: Relation) -> DataType:
        if expression is None:
            return DataType.INTEGER
        if isinstance(expression, ColumnRef) and child.schema.has_column(expression.name):
            return child.schema.column(expression.name).dtype
        if child.rows:
            try:
                return infer_type(expression.evaluate(child.rows[0]))
            except Exception:  # noqa: BLE001 - fall back to float
                return DataType.FLOAT
        return DataType.FLOAT

    @staticmethod
    def _dedupe(columns: list[Column]) -> list[Column]:
        seen: dict[str, int] = {}
        out = []
        for col in columns:
            key = col.name.lower()
            if key in seen:
                seen[key] += 1
                out.append(col.with_name(f"{col.name}_{seen[key]}"))
            else:
                seen[key] = 0
                out.append(col)
        return out


def make_select_items(names: list[str]) -> list[SelectItem]:
    """Convenience: build plain column SelectItems from names (used by shims)."""
    return [SelectItem(expression=ColumnRef(name)) for name in names]
