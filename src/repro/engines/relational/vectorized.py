"""Vectorized (columnar batch) execution for the relational engine.

The classic executor in :mod:`repro.engines.relational.executor` materializes
a :class:`~repro.common.schema.Row` object per tuple and tree-walks
``Expression.evaluate`` per row per predicate — exactly the interpreted
per-tuple overhead the Cambridge report calls out.  This module is the cure:

* **Batches, not rows.**  Operators stream
  :class:`~repro.common.schema.ColumnBatch` objects (bounded column-wise
  slices).  A sequential scan slices views of the table's columnar scan
  image (:meth:`HeapTable.scan_image`), captured when the plan opens, so
  scanning transposes nothing and a write landing mid-scan cannot disturb
  it; no operator ever builds a full ``Relation`` of ``Row`` objects.
* **Compile once, run per batch.**  Predicates, projections, join keys,
  group keys and sort keys are lowered once per plan node with
  :meth:`Expression.compile` into positional-tuple closures — no per-row
  name resolution or isinstance dispatch.
* **numpy kernels where the data allows.**  A predicate over numeric
  columns (dtype mapping shared with the array island), TEXT ``=``/``!=``/
  ``<>`` against a string literal and TEXT ``IN`` over string literals is
  lowered to a numpy mask kernel with SQL three-valued NULL semantics, so a
  filter over a 100k-row batch is a handful of vector ops.  TEXT ordering
  comparisons and ``LIKE`` keep the compiled row closure.
* **Key-encoded joins and group-bys.**  Join keys and grouping keys are
  factorized once into dense int64 codes (:mod:`repro.common.keycodes`);
  a hash join probes whole batches with ``np.take`` gathers over a CSR
  layout of the build side — including left/right/full outer joins, which
  track a matched-build bitmap and emit null-padded batches — and grouped
  aggregation accumulates count/sum/avg/min/max per group with
  ``np.bincount``/segmented reductions whose accumulation order matches
  the row accumulators bit for bit.

Operators the batch path does not cover (cross and non-equi joins) fall
back to the row executor for that subtree — with the *reason* recorded per
operator (surfaced by EXPLAIN as ``[row: <reason>]`` and counted in the
engine's ``fallback_reasons``) — so every query still answers; the two
modes return identical results, which `tests/test_vectorized_execution.py`
asserts property-style.
"""

from __future__ import annotations

import itertools
import operator
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

import numpy as np

from repro.common.cancellation import current_token
from repro.common.errors import ExecutionError, SchemaError
from repro.common.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    InList,
    IsNull,
    Literal,
    UnaryOp,
    compile_predicate,
    conjunction,
    evaluate_predicate,
    split_conjuncts,
)
from repro.common.keycodes import (
    IncrementalGroupEncoder,
    JoinKeyTable,
    encode_group_keys,
)
from repro.common.schema import Column, ColumnBatch, Relation, Row, Schema
from repro.common.schema import object_view as _object_view
from repro.common.types import DataType, infer_type
from repro.engines.array.storage import _NUMPY_DTYPES as _ARRAY_ISLAND_DTYPES
from repro.engines.relational.executor import _DUAL_SCHEMA, Executor
from repro.engines.relational.functions import make_aggregate
from repro.engines.relational.morsel import approx_batch_bytes, partitioned_spill_join
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
from repro.observability.profile import observe_stream
from repro.observability.tracing import get_tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.relational.engine import RelationalEngine

#: Rows per batch on the vectorized pipeline (bounded memory per operator).
DEFAULT_BATCH_ROWS = 4096

#: numpy dtype per scalar type, shared with the array island's buffers so a
#: relational batch and an array chunk agree on the wire representation.
#: Only types whose Python values pack losslessly into a fixed-width numpy
#: array participate in numeric kernels.  TEXT columns take part only in
#: equality and IN against string literals, compared elementwise over the
#: object column itself (see :func:`_lower_text`); every other TEXT or
#: TIMESTAMP predicate uses the compiled row closure.
_KERNEL_DTYPES = {
    dtype: _ARRAY_ISLAND_DTYPES[dtype]
    for dtype in (DataType.INTEGER, DataType.FLOAT, DataType.BOOLEAN)
}

#: Column-environment marker for a TEXT column: kept as its object array.
_TEXT_COLUMN = object

#: Comparisons a TEXT column supports in a kernel (ordering stays on the
#: row closure).
_TEXT_EQUALITY_OPS = ("=", "==", "!=", "<>")

_COMPARE_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITH_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}

#: Division and modulo get masked kernels: the by-zero error must fire only
#: for rows that the row path would actually evaluate (AND/OR short-circuits
#: skip rows), so the kernel threads an active-row mask through lowering and
#: checks divisors against it before dividing.
_DIVISION_OPS = ("/", "%")


class _KernelUnsupported(Exception):
    """Raised during lowering when an expression has no vector form."""


def _compile_or_defer(expression: Expression, schema: Schema) -> Callable[[Sequence[Any]], Any]:
    """Compile an expression, deferring compile-time errors to evaluation time.

    The row executor only surfaces a bad column reference when a row is
    actually evaluated (an empty input never errors); eager compilation would
    move that error to plan time.  Deferring keeps the two modes identical.
    """
    try:
        return expression.compile(schema)
    except Exception:  # noqa: BLE001 - re-raised on first evaluation, like the row path
        return lambda values: expression.evaluate(Row(schema, values))


def _compile_predicate_or_defer(
    predicate: Expression | None, schema: Schema
) -> Callable[[Sequence[Any]], bool]:
    try:
        return compile_predicate(predicate, schema)
    except Exception:  # noqa: BLE001
        return lambda values: evaluate_predicate(predicate, Row(schema, values))


def _union_nulls(left: np.ndarray | None, right: np.ndarray | None) -> np.ndarray | None:
    if left is None:
        return right
    if right is None:
        return left
    return left | right


def _as_bool(values: Any) -> np.ndarray:
    return np.asarray(values).astype(np.bool_, copy=False)




def _null_mask_of(column: Sequence[Any]) -> np.ndarray:
    if isinstance(column, np.ndarray):
        return np.equal(column, None)
    return np.fromiter((v is None for v in column), np.bool_, count=len(column))


def _count_nulls(column: Sequence[Any]) -> int:
    if isinstance(column, np.ndarray):
        return int(np.count_nonzero(np.equal(column, None)))
    return column.count(None)


# Each lowered node maps ({column index: (values array, null mask | None)},
# active-row mask) to its own (values, null mask | None) pair.  Values at
# null positions are unspecified; the final mask removes them (SQL: NULL is
# not satisfied).  The active mask marks rows the row executor would
# actually evaluate at this point — AND/OR narrow it for their right
# operands, and the division kernels consult it so ``x / 0`` errors fire
# for exactly the rows that survive short-circuiting.
_KernelNode = Callable[
    [dict[int, tuple[np.ndarray, "np.ndarray | None"]], np.ndarray],
    tuple[Any, "np.ndarray | None"],
]


def _require_float_columns(expr: Expression, schema: Schema) -> None:
    """Reject arithmetic over INTEGER columns: int64 wraps on overflow where
    Python's arbitrary-precision ints do not, which could silently change a
    mask.  float64 arithmetic matches the row path's float semantics exactly.
    """
    for name in expr.referenced_columns():
        if schema.columns[schema.index_of(name)].dtype is not DataType.FLOAT:
            raise _KernelUnsupported(f"arithmetic over non-float column {name!r}")


def _text_column(expr: Expression, schema: Schema) -> int | None:
    """The schema index of ``expr`` when it is a reference to a TEXT column."""
    if isinstance(expr, ColumnRef):
        index = schema.index_of(expr.name)
        if schema.columns[index].dtype is DataType.TEXT:
            return index
    return None


def _lower_text(expr: Expression, schema: Schema, columns: dict[int, Any]) -> _KernelNode | None:
    """Lower TEXT ``col = 'x'`` / ``!=`` / ``<>`` and ``col [NOT] IN ('x', ...)``.

    The comparison runs elementwise over the object column with Python
    ``==``, the very operator the row closure applies, so the values agree
    row for row; NULL rows are removed by the column's null mask exactly as
    the row path's ``_null_safe`` yields NULL.  Returns None for any other
    shape, leaving it to the numeric lowering (which rejects TEXT columns).
    """
    if isinstance(expr, BinaryOp) and expr.op.lower() in _TEXT_EQUALITY_OPS:
        fn = _COMPARE_OPS[expr.op.lower()]
        for column_expr, literal_expr in ((expr.left, expr.right), (expr.right, expr.left)):
            index = _text_column(column_expr, schema)
            if (
                index is not None
                and isinstance(literal_expr, Literal)
                and isinstance(literal_expr.value, str)
            ):
                columns[index] = _TEXT_COLUMN
                literal = literal_expr.value

                def _text_compare(env: dict, active: np.ndarray) -> tuple[Any, np.ndarray | None]:
                    vals, nulls = env[index]
                    return fn(vals, literal), nulls

                return _text_compare
        return None
    if isinstance(expr, InList):
        index = _text_column(expr.operand, schema)
        if index is None or not expr.values or not all(isinstance(v, str) for v in expr.values):
            return None
        columns[index] = _TEXT_COLUMN
        members = expr.values
        negated = expr.negated

        def _text_in(env: dict, active: np.ndarray) -> tuple[Any, np.ndarray | None]:
            vals, nulls = env[index]
            result = vals == members[0]
            for member in members[1:]:
                result |= vals == member
            return (~result if negated else result), nulls

        return _text_in
    return None


def _lower(expr: Expression, schema: Schema, columns: dict[int, Any]) -> tuple[_KernelNode, bool]:
    """Lower ``expr``; returns (kernel node, produces-boolean-values).

    The boolean flag matters for AND/OR: the row path short-circuits only on
    the literal ``False`` (``value is False``), so ``0 AND NULL`` is NULL
    there while a truthiness-based kernel would call it False.  Restricting
    AND/OR to operands that produce genuine booleans keeps the two paths
    identical; anything else falls back to the compiled row closure.
    """
    text = _lower_text(expr, schema, columns)
    if text is not None:
        return text, True
    if isinstance(expr, Literal):
        value = expr.value
        if not isinstance(value, (bool, int, float)) or value is None:
            raise _KernelUnsupported(f"literal {value!r}")
        return (lambda env, active: (value, None)), isinstance(value, bool)
    if isinstance(expr, ColumnRef):
        index = schema.index_of(expr.name)
        dtype = schema.columns[index].dtype
        if dtype not in _KERNEL_DTYPES:
            raise _KernelUnsupported(f"column {expr.name!r} has non-numeric type {dtype}")
        columns[index] = _KERNEL_DTYPES[dtype]
        return (lambda env, active: env[index]), dtype is DataType.BOOLEAN
    if isinstance(expr, BinaryOp):
        op = expr.op.lower()
        if op in ("and", "or"):
            left, left_boolean = _lower(expr.left, schema, columns)
            right, right_boolean = _lower(expr.right, schema, columns)
            if not (left_boolean and right_boolean):
                raise _KernelUnsupported("AND/OR over non-boolean operands")
            conjunctive = op == "and"

            def _logic(env: dict, active: np.ndarray) -> tuple[Any, np.ndarray | None]:
                lv, ln = left(env, active)
                lb = _as_bool(lv)
                # The row path skips the right operand only when the left is
                # the literal False (AND) / True (OR); NULL still evaluates it.
                if conjunctive:
                    evaluates_right = lb if ln is None else (lb | ln)
                else:
                    evaluates_right = ~lb if ln is None else (~lb | ln)
                rv, rn = right(env, active & evaluates_right)
                rb = _as_bool(rv)
                vals = (lb & rb) if conjunctive else (lb | rb)
                if ln is None and rn is None:
                    return vals, None
                if conjunctive:
                    # AND is NULL unless either side is definitely False.
                    decided_l = ~lb if ln is None else (~lb & ~ln)
                    decided_r = ~rb if rn is None else (~rb & ~rn)
                else:
                    # OR is NULL unless either side is definitely True.
                    decided_l = lb if ln is None else (lb & ~ln)
                    decided_r = rb if rn is None else (rb & ~rn)
                nulls = _union_nulls(ln, rn) & ~decided_l & ~decided_r
                return vals, nulls

            return _logic, True
        if op in _COMPARE_OPS or op in _ARITH_OPS:
            fn = _COMPARE_OPS.get(op) or _ARITH_OPS[op]
            if op in _ARITH_OPS:
                _require_float_columns(expr, schema)
            left, _lb = _lower(expr.left, schema, columns)
            right, _rb = _lower(expr.right, schema, columns)

            def _binary(env: dict, active: np.ndarray) -> tuple[Any, np.ndarray | None]:
                lv, ln = left(env, active)
                rv, rn = right(env, active)
                return fn(lv, rv), _union_nulls(ln, rn)

            return _binary, op in _COMPARE_OPS
        if op in _DIVISION_OPS:
            _require_float_columns(expr, schema)
            left, _lb = _lower(expr.left, schema, columns)
            right, _rb = _lower(expr.right, schema, columns)
            modulo = op == "%"

            def _masked_divide(env: dict, active: np.ndarray) -> tuple[Any, np.ndarray | None]:
                lv, ln = left(env, active)
                rv, rn = right(env, active)
                zero = np.asarray(rv) == 0
                if zero.ndim == 0:
                    zero = np.full(active.shape, bool(zero), dtype=np.bool_)
                # NULL on either side yields NULL before the division runs
                # (_null_safe), so those rows cannot raise on the row path.
                evaluated = active if ln is None else (active & ~ln)
                if rn is not None:
                    evaluated = evaluated & ~rn
                if bool((zero & evaluated).any()):
                    if modulo:
                        raise ZeroDivisionError("float modulo")
                    raise ExecutionError("division by zero")
                safe_rv = np.where(zero, 1, rv) if zero.any() else rv
                with np.errstate(divide="ignore", invalid="ignore"):
                    vals = np.mod(lv, safe_rv) if modulo else np.true_divide(lv, safe_rv)
                return vals, _union_nulls(ln, rn)

            return _masked_divide, False
        raise _KernelUnsupported(f"operator {expr.op!r}")
    if isinstance(expr, UnaryOp):
        op = expr.op.lower()
        if op == "not":
            operand, _ob = _lower(expr.operand, schema, columns)

            def _not(env: dict, active: np.ndarray) -> tuple[Any, np.ndarray | None]:
                vals, nulls = operand(env, active)
                return ~_as_bool(vals), nulls

            return _not, True
        if op == "-":
            _require_float_columns(expr, schema)
            operand, _ob = _lower(expr.operand, schema, columns)

            def _neg(env: dict, active: np.ndarray) -> tuple[Any, np.ndarray | None]:
                vals, nulls = operand(env, active)
                return operator.neg(vals), nulls

            return _neg, False
        raise _KernelUnsupported(f"unary operator {expr.op!r}")
    if isinstance(expr, IsNull):
        operand, _ob = _lower(expr.operand, schema, columns)
        negated = expr.negated

        def _is_null(env: dict, active: np.ndarray) -> tuple[Any, np.ndarray | None]:
            vals, nulls = operand(env, active)
            shaped = np.asarray(vals)
            if shaped.ndim == 0:
                raise _KernelUnsupported("IS NULL over a scalar")
            base = nulls if nulls is not None else np.zeros(shaped.shape, dtype=np.bool_)
            return (~base if negated else base), None

        return _is_null, True
    if isinstance(expr, InList):
        if any(not isinstance(v, (bool, int, float)) or v is None for v in expr.values):
            raise _KernelUnsupported("non-numeric IN list")
        operand, _ob = _lower(expr.operand, schema, columns)
        members = list(expr.values)
        negated = expr.negated

        def _in(env: dict, active: np.ndarray) -> tuple[Any, np.ndarray | None]:
            vals, nulls = operand(env, active)
            result = np.isin(vals, members)
            return (~result if negated else result), nulls

        return _in, True
    raise _KernelUnsupported(type(expr).__name__)


def _typed_column(objects: np.ndarray, dtype: Any) -> tuple[np.ndarray, np.ndarray | None]:
    """An object column as (typed values, null mask | None) for a kernel.

    Values at NULL positions are unspecified (the kernel masks them out).
    A float cast turns ``None`` into NaN, so only NaN positions need the
    per-object NULL test; an integer cast rejects ``None`` outright, so
    the NULL mask is built only for columns that hold one.  Booleans cast
    ``None`` to False silently and always take the masked path.
    """
    if dtype is np.float64:
        vals = objects.astype(np.float64)
        nulls = np.isnan(vals)
        if not nulls.any():
            return vals, None
        nulls[nulls] = np.equal(objects[nulls], None)
        return vals, (nulls if nulls.any() else None)
    if dtype is not np.bool_:
        try:
            return objects.astype(dtype), None
        except TypeError:
            pass
    nulls = _null_mask_of(objects)
    if not nulls.any():
        return objects.astype(dtype), None
    return np.where(nulls, 0, objects).astype(dtype), nulls


class FilterKernel:
    """A predicate lowered to a numpy mask function over a ColumnBatch."""

    def __init__(self, fn: _KernelNode, columns: dict[int, Any]) -> None:
        self._fn = fn
        self._columns = tuple(columns.items())

    def __call__(self, batch: ColumnBatch) -> np.ndarray:
        length = len(batch)
        env: dict[int, tuple[np.ndarray, np.ndarray | None]] = {}
        for index, dtype in self._columns:
            column = batch.columns[index]
            objects = _object_view(column)
            if dtype is _TEXT_COLUMN:
                nulls = _null_mask_of(objects)
                env[index] = (objects, nulls if nulls.any() else None)
            else:
                env[index] = _typed_column(objects, dtype)
        vals, nulls = self._fn(env, np.ones(length, dtype=np.bool_))
        mask = _as_bool(vals)
        if mask.ndim == 0:
            mask = np.full(length, bool(mask), dtype=np.bool_)
        if nulls is not None:
            mask = mask & ~nulls
        return mask


def compile_filter_kernel(predicate: Expression, schema: Schema) -> FilterKernel | None:
    """Lower a predicate to a numpy kernel, or None when it has no vector form."""
    columns: dict[int, Any] = {}
    try:
        fn, _boolean = _lower(predicate, schema, columns)
    except _KernelUnsupported:
        return None
    except Exception:  # noqa: BLE001 - malformed predicates fail on the row path
        return None
    if not columns:
        return None  # constant predicate: nothing to vectorize
    return FilterKernel(fn, columns)


class _PredicateRunner:
    """Applies one predicate to batches: numpy kernel first, row closure fallback."""

    def __init__(self, predicate: Expression, schema: Schema) -> None:
        self.kernel = compile_filter_kernel(predicate, schema)
        self._row_predicate = _compile_predicate_or_defer(predicate, schema)

    def __call__(self, batch: ColumnBatch) -> ColumnBatch:
        if self.kernel is not None:
            try:
                mask = self.kernel(batch)
            except (_KernelUnsupported, TypeError, OverflowError):
                mask = None  # fall back; the row path reproduces exact semantics
            if mask is not None:
                if mask.all():
                    return batch
                return batch.compress(mask)
        fn = self._row_predicate
        flags = [fn(values) for values in batch.value_rows()]
        if all(flags):
            return batch
        return batch.compress(flags)


_FAST_AGGREGATES = ("count", "sum", "avg", "min", "max")


class BatchExecutor:
    """Executes logical plans as a streaming columnar batch pipeline.

    Produces results identical to :class:`Executor` (the row-at-a-time
    volcano executor), which stays available both as the ``row`` execution
    mode and as the fallback for plan shapes the batch pipeline does not
    cover yet.
    """

    def __init__(
        self,
        engine: "RelationalEngine",
        batch_rows: int = DEFAULT_BATCH_ROWS,
        row_executor: Executor | None = None,
    ) -> None:
        self._engine = engine
        self._batch_rows = batch_rows
        self._row_executor = row_executor if row_executor is not None else Executor(engine)
        #: Installed by ``RelationalEngine.explain(analyze=True)`` for the
        #: duration of one query; None keeps the pipeline unobserved.
        self.profiler = None

    def _record_morsel(self) -> None:
        record = getattr(self._engine, "record_morsels", None)
        if record is not None:
            record(1)

    def _estimated_build_bytes(self, node: JoinNode) -> int | None:
        """Statistics-based build-side size prediction (None without stats)."""
        estimate = getattr(self._engine, "estimated_plan_bytes", None)
        if estimate is None:
            return None
        build_child = (
            node.left
            if node.join_type == "inner" and node.build_side != "right"
            else node.right
        )
        return estimate(build_child)

    # ------------------------------------------------------------------ public
    def execute(self, plan: LogicalPlan) -> Relation:
        schema, batches = self.stream(plan)
        relation = Relation(schema)
        rows = relation.rows
        for batch in batches:
            rows.extend(Row(schema, values) for values in batch.value_rows())
        return relation

    def stream(self, plan: LogicalPlan) -> tuple[Schema, Iterator[ColumnBatch]]:
        """Output schema plus a bounded-batch iterator for a plan subtree.

        When a :class:`~repro.observability.profile.PlanProfiler` is
        installed (EXPLAIN ANALYZE) or the global tracer is enabled, the
        iterator is wrapped to account per-operator rows/batches/time;
        otherwise the pipeline is returned untouched.
        """
        schema, batches = self._stream_impl(plan)
        profiler = self.profiler
        tracer = get_tracer()
        if profiler is not None or tracer.enabled:
            batches = observe_stream(plan, batches, profiler, tracer)
        return schema, batches

    def _stream_impl(self, plan: LogicalPlan) -> tuple[Schema, Iterator[ColumnBatch]]:
        if isinstance(plan, ScanNode):
            return self._scan_stream(plan)
        if isinstance(plan, IndexScanNode):
            return self._index_scan_stream(plan)
        if isinstance(plan, SubqueryNode):
            return self._subquery_stream(plan)
        if isinstance(plan, FilterNode):
            return self._filter_stream(plan)
        if isinstance(plan, JoinNode):
            reason = self._join_fallback_reason(plan)
            if reason is None:
                return self._join_stream(plan)
            return self._fallback_stream(plan, reason)
        if isinstance(plan, AggregateNode):
            return self._aggregate_stream(plan)
        if isinstance(plan, PruneNode):
            return self._prune_stream(plan)
        if isinstance(plan, ProjectNode):
            return self._project_stream(plan)
        if isinstance(plan, SortNode):
            return self._sort_stream(plan)
        if isinstance(plan, LimitNode):
            return self._limit_stream(plan)
        return self._fallback_stream(plan, f"unsupported operator: {type(plan).__name__}")

    @staticmethod
    def vectorizes(node: LogicalPlan) -> bool:
        """Whether a plan node runs on the batch pipeline (used by EXPLAIN)."""
        return BatchExecutor.fallback_reason(node) is None

    @staticmethod
    def fallback_reason(node: LogicalPlan) -> str | None:
        """Why a plan node falls back to the row executor, or None if it
        vectorizes.  EXPLAIN renders this as ``[row: <reason>]`` and the
        engine tallies it per reason in ``fallback_reasons``."""
        if isinstance(node, JoinNode):
            return BatchExecutor._join_fallback_reason(node)
        if isinstance(
            node,
            (
                ScanNode,
                IndexScanNode,
                SubqueryNode,
                FilterNode,
                ProjectNode,
                PruneNode,
                AggregateNode,
                SortNode,
                LimitNode,
            ),
        ):
            return None
        return f"unsupported operator: {type(node).__name__}"

    @staticmethod
    def _join_fallback_reason(node: JoinNode) -> str | None:
        """Static (schema-free) classification mirroring the runtime check.

        Without the input schemas a conjunct's side assignment cannot be
        fully resolved; a trivially self-referential equality (``a.x = a.x``)
        is rejected here, and the runtime re-checks against real schemas —
        an unresolvable key still falls back, recorded as
        ``no equi-join keys resolved``.
        """
        if node.join_type == "cross" or node.condition is None:
            return "cross join"
        if node.join_type not in ("inner", "left", "right", "full"):
            return f"unsupported join type: {node.join_type}"
        if node.strategy != "hash":
            return "non-equi join"
        for conjunct in split_conjuncts(node.condition):
            if (
                isinstance(conjunct, BinaryOp)
                and conjunct.op in ("=", "==")
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)
                and conjunct.left.name.lower() != conjunct.right.name.lower()
            ):
                return None
        return "non-equi join"

    # ---------------------------------------------------------------- fallback
    def _fallback_stream(
        self, plan: LogicalPlan, reason: str = "unsupported plan shape"
    ) -> tuple[Schema, Iterator[ColumnBatch]]:
        """Row-executor escape hatch for subtrees without a batch form."""
        record = getattr(self._engine, "record_fallback", None)
        if record is not None:
            record(reason)
        relation = self._row_executor.execute(plan)
        schema = relation.schema

        def generate() -> Iterator[ColumnBatch]:
            values = [row.values for row in relation.rows]
            for start in range(0, len(values), self._batch_rows):
                yield ColumnBatch.from_value_rows(schema, values[start : start + self._batch_rows])

        return schema, generate()

    # ------------------------------------------------------------------- scans
    def _scan_stream(self, node: ScanNode) -> tuple[Schema, Iterator[ColumnBatch]]:
        if node.table == "__dual__":
            return _DUAL_SCHEMA, iter([ColumnBatch.from_value_rows(_DUAL_SCHEMA, [(0,)])])
        table = self._engine.table(node.table)
        schema = Executor._qualified_schema(table.schema, node.alias or node.table)
        predicate = None if node.predicate is None else _PredicateRunner(node.predicate, schema)
        # Captured when the plan opens: later writes to the table publish a
        # new image and leave this scan's snapshot untouched.
        image = table.scan_image()

        def generate() -> Iterator[ColumnBatch]:
            token = current_token()
            for length, columns in image.slices(self._batch_rows):
                if token is not None:
                    # Cooperative cancellation: a timed-out or abandoned
                    # query stops at the next batch, not at end-of-scan.
                    token.check()
                batch = ColumnBatch(schema, columns, length)
                if predicate is not None:
                    batch = predicate(batch)
                if len(batch):
                    self._record_morsel()
                    yield batch

        return schema, generate()

    def _index_scan_stream(self, node: IndexScanNode) -> tuple[Schema, Iterator[ColumnBatch]]:
        table = self._engine.table(node.table)
        schema = Executor._qualified_schema(table.schema, node.alias or node.table)
        predicate = None if node.residual is None else _PredicateRunner(node.residual, schema)

        def generate() -> Iterator[ColumnBatch]:
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
            token = current_token()
            pending: list[tuple[Any, ...]] = []
            for _row_id, values in matches:
                pending.append(values)
                if len(pending) >= self._batch_rows:
                    if token is not None:
                        token.check()
                    batch = ColumnBatch.from_value_rows(schema, pending)
                    pending = []
                    if predicate is not None:
                        batch = predicate(batch)
                    if len(batch):
                        self._record_morsel()
                        yield batch
            if pending:
                batch = ColumnBatch.from_value_rows(schema, pending)
                if predicate is not None:
                    batch = predicate(batch)
                if len(batch):
                    self._record_morsel()
                    yield batch

        return schema, generate()

    def _subquery_stream(self, node: SubqueryNode) -> tuple[Schema, Iterator[ColumnBatch]]:
        inner_schema, batches = self.stream(node.plan)
        schema = Executor._qualified_schema(inner_schema, node.alias)
        return schema, (batch.with_schema(schema) for batch in batches)

    # --------------------------------------------------------------- operators
    def _filter_stream(self, node: FilterNode) -> tuple[Schema, Iterator[ColumnBatch]]:
        schema, batches = self.stream(node.child)
        predicate = _PredicateRunner(node.predicate, schema)

        def generate() -> Iterator[ColumnBatch]:
            for batch in batches:
                filtered = predicate(batch)
                if len(filtered):
                    yield filtered

        return schema, generate()

    def _join_stream(self, node: JoinNode) -> tuple[Schema, Iterator[ColumnBatch]]:
        """Key-encoded batched hash join (inner and left/right/full outer).

        The build side is factorized once into dense int64 codes
        (:class:`~repro.common.keycodes.JoinKeyTable`) and laid out CSR-style
        (rows grouped by code, original order preserved); each probe batch
        then resolves to build rows with ``searchsorted``/``np.repeat``
        index arithmetic and two ``np.take`` gathers — no per-row tuples.
        Only residual (non-equi) conjuncts, if any, run per candidate.

        Outer joins track a matched-build bitmap: unmatched probe rows are
        null-padded inline (left/full, preserving the row executor's
        left-major order) and unmatched build rows are emitted as trailing
        null-padded batches (right/full).
        """
        left_schema, left_batches = self.stream(node.left)
        right_schema, right_batches = self.stream(node.right)
        keys, residual_conjuncts = Executor.split_join_condition(
            node.condition, left_schema, right_schema
        )
        if not keys:
            return self._fallback_stream(node, "no equi-join keys resolved")
        joined_schema = left_schema.concat(right_schema)
        left_indices = [left_schema.index_of(pair[0]) for pair in keys]
        right_indices = [right_schema.index_of(pair[1]) for pair in keys]
        residual = (
            _compile_predicate_or_defer(conjunction(residual_conjuncts), joined_schema)
            if residual_conjuncts
            else None
        )
        # Outer joins probe the left input (left-major output order); inner
        # joins honor the planner's build-side hint.
        build_on_left = node.join_type == "inner" and node.build_side != "right"
        if build_on_left:
            build_schema, build_batches, build_key_idx = left_schema, left_batches, left_indices
            probe_schema, probe_batches, probe_key_idx = right_schema, right_batches, right_indices
        else:
            build_schema, build_batches, build_key_idx = right_schema, right_batches, right_indices
            probe_schema, probe_batches, probe_key_idx = left_schema, left_batches, left_indices
        pad_probe = node.join_type in ("left", "full")
        track_build = node.join_type in ("right", "full")
        batch_rows = self._batch_rows

        def generate() -> Iterator[ColumnBatch]:
            engine = self._engine
            budget = getattr(engine, "join_memory_budget", None)
            # ---------------------------------------------- memory budget gate
            # Stream the build side watching the budget: a statistics-based
            # prediction or a measured overrun hands the whole join (prefix
            # batches already read + the rest of both streams) to the
            # partitioned spill join, which never pins the full build side.
            parts: list[ColumnBatch] = []
            build_iter = iter(build_batches)
            over_budget = False
            approx = 0
            if budget is not None:
                predicted = self._estimated_build_bytes(node)
                over_budget = predicted is not None and predicted > budget
                if not over_budget:
                    for part in build_iter:
                        parts.append(part)
                        approx += approx_batch_bytes(part)
                        if approx > budget:
                            over_budget = True
                            break
            else:
                parts = list(build_iter)
                approx = sum(approx_batch_bytes(part) for part in parts)
            if over_budget:
                spill_partitions = getattr(engine, "join_spill_partitions", 8)
                yield from partitioned_spill_join(
                    joined_schema=joined_schema,
                    build_schema=build_schema,
                    probe_schema=probe_schema,
                    build_batches=itertools.chain(parts, build_iter),
                    probe_batches=probe_batches,
                    build_key_idx=build_key_idx,
                    probe_key_idx=probe_key_idx,
                    residual=residual,
                    build_on_left=build_on_left,
                    pad_probe=pad_probe,
                    track_build=track_build,
                    batch_rows=batch_rows,
                    budget=budget,
                    partitions=spill_partitions,
                    engine=engine,
                )
                return
            record_bytes = getattr(engine, "record_build_bytes", None)
            if record_bytes is not None:
                record_bytes(approx)
            build_block = ColumnBatch.concat(build_schema, parts)
            table = JoinKeyTable(
                [build_block.columns[i] for i in build_key_idx],
                [build_schema.columns[i].dtype for i in build_key_idx],
                [probe_schema.columns[i].dtype for i in probe_key_idx],
            )
            build_codes = table.build_codes
            group_count = table.group_count
            # CSR layout: build row ids grouped by code, original order kept
            # within each code so match order equals build insertion order.
            order = np.argsort(build_codes, kind="stable")
            sorted_codes = build_codes[order]
            first_valid = int(np.searchsorted(sorted_codes, 0))
            sorted_rows = order[first_valid:]
            sorted_codes = sorted_codes[first_valid:]
            starts = np.searchsorted(sorted_codes, np.arange(group_count))
            counts = np.bincount(sorted_codes, minlength=group_count).astype(np.int64)
            build_obj = [_object_view(col) for col in build_block.columns]
            build_matched = (
                np.zeros(len(build_block), dtype=np.bool_) if track_build else None
            )

            def probe_one(
                batch: ColumnBatch,
            ) -> tuple[np.ndarray | None, ColumnBatch | None]:
                length = len(batch)
                pcodes = table.probe([batch.columns[i] for i in probe_key_idx])
                hits = np.flatnonzero(pcodes >= 0)
                if hits.size:
                    codes_h = pcodes[hits]
                    cnts = counts[codes_h]
                    total = int(cnts.sum())
                else:
                    cnts = np.zeros(0, dtype=np.int64)
                    total = 0
                if total:
                    probe_rep = np.repeat(hits, cnts)
                    seg_start = np.repeat(starts[codes_h], cnts)
                    cum = np.cumsum(cnts)
                    offsets = np.arange(total, dtype=np.int64) - np.repeat(cum - cnts, cnts)
                    build_rows = sorted_rows[seg_start + offsets]
                else:
                    probe_rep = np.zeros(0, dtype=np.int64)
                    build_rows = np.zeros(0, dtype=np.int64)
                probe_obj: list[np.ndarray] | None = None
                cand_build: list[np.ndarray] | None = None
                cand_probe: list[np.ndarray] | None = None
                if residual is not None and total:
                    probe_obj = [_object_view(col) for col in batch.columns]
                    cand_build = [np.take(col, build_rows) for col in build_obj]
                    cand_probe = [np.take(col, probe_rep) for col in probe_obj]
                    ordered = (
                        cand_build + cand_probe if build_on_left else cand_probe + cand_build
                    )
                    keep = np.fromiter(
                        (residual(values) for values in zip(*(c.tolist() for c in ordered))),
                        np.bool_,
                        count=total,
                    )
                    probe_rep = probe_rep[keep]
                    build_rows = build_rows[keep]
                    cand_build = [col[keep] for col in cand_build]
                    cand_probe = [col[keep] for col in cand_probe]
                matched_rows = build_rows if track_build else None
                pads = (
                    np.flatnonzero(np.bincount(probe_rep, minlength=length) == 0)
                    if pad_probe
                    else np.zeros(0, dtype=np.int64)
                )
                out_len = int(probe_rep.size + pads.size)
                if not out_len:
                    return matched_rows, None
                if cand_build is not None:
                    # Residual path: candidate columns are already gathered
                    # and keep-compressed — merge in the pads (if any) with
                    # one concatenate + permutation instead of re-gathering.
                    if pads.size:
                        merge_order = np.argsort(
                            np.concatenate([probe_rep, pads]), kind="stable"
                        )
                        pad_fill = np.full(pads.size, None, dtype=object)
                        probe_cols = [
                            np.concatenate([kept, np.take(view, pads)])[merge_order]
                            for kept, view in zip(cand_probe, probe_obj)
                        ]
                        build_cols = [
                            np.concatenate([kept, pad_fill])[merge_order]
                            for kept in cand_build
                        ]
                    else:
                        probe_cols, build_cols = cand_probe, cand_build
                else:
                    if pads.size:
                        merge_keys = np.concatenate([probe_rep, pads])
                        merge_order = np.argsort(merge_keys, kind="stable")
                        seq_probe = merge_keys[merge_order]
                        seq_build = np.concatenate(
                            [build_rows, np.zeros(pads.size, dtype=np.int64)]
                        )[merge_order]
                        is_pad = np.concatenate(
                            [
                                np.zeros(probe_rep.size, dtype=np.bool_),
                                np.ones(pads.size, dtype=np.bool_),
                            ]
                        )[merge_order]
                    else:
                        seq_probe, seq_build, is_pad = probe_rep, build_rows, None
                    if probe_obj is None:
                        probe_obj = [_object_view(col) for col in batch.columns]
                    probe_cols = [np.take(col, seq_probe) for col in probe_obj]
                    if len(build_block):
                        build_cols = [np.take(col, seq_build) for col in build_obj]
                        if is_pad is not None:
                            for col in build_cols:
                                col[is_pad] = None
                    else:
                        # Empty build side: every emitted row is a pad (only
                        # left/full outer reach here) — nothing to gather.
                        build_cols = [
                            np.full(out_len, None, dtype=object) for _ in build_obj
                        ]
                ordered_cols = (
                    build_cols + probe_cols if build_on_left else probe_cols + build_cols
                )
                return matched_rows, ColumnBatch(
                    joined_schema, [col.tolist() for col in ordered_cols], out_len
                )

            tracer = get_tracer()
            for batch in probe_batches:
                with tracer.span("join.probe_morsel", kind="operator", rows=len(batch)):
                    matched_rows, out = probe_one(batch)
                if build_matched is not None:
                    build_matched[matched_rows] = True
                if out is not None:
                    yield out
            if build_matched is not None:
                unmatched = np.flatnonzero(~build_matched)
                if unmatched.size:
                    # One gather for all unmatched build rows, then cheap
                    # list slices per emitted batch.
                    padded = build_block.gather(unmatched)
                    for start in range(0, unmatched.size, batch_rows):
                        size = min(batch_rows, int(unmatched.size) - start)
                        build_cols = [
                            column[start : start + size] for column in padded.columns
                        ]
                        probe_pad = ColumnBatch.nulls(probe_schema, size).columns
                        yield ColumnBatch(
                            joined_schema, probe_pad + build_cols, size
                        )

        return joined_schema, generate()

    def _prune_stream(self, node: PruneNode) -> tuple[Schema, Iterator[ColumnBatch]]:
        """Optimizer-inserted narrowing: pass through only the kept columns.

        Columns are shared by reference, so this costs one list pick per
        batch — the savings materialize in the operators above (the hash
        join gathers and the group-by representatives touch fewer columns).
        """
        child_schema, batches = self.stream(node.child)
        indices = [child_schema.index_of(name) for name in node.columns]
        schema = child_schema.project(node.columns)

        def generate() -> Iterator[ColumnBatch]:
            for batch in batches:
                yield ColumnBatch(
                    schema, [batch.columns[i] for i in indices], len(batch)
                )

        return schema, generate()

    def _project_stream(self, node: ProjectNode) -> tuple[Schema, Iterator[ColumnBatch]]:
        child_schema, batches = self.stream(node.child)
        first = next(batches, None)
        first_values = next(first.value_rows(), None) if first is not None else None
        columns: list[Column] = []
        for item in node.items:
            if item.star:
                columns.extend(child_schema.columns)
            else:
                dtype = self._expression_type(item.expression, child_schema, first_values)
                columns.append(Column(item.output_name, dtype))
        schema = Schema(Executor._dedupe(columns))
        compiled: list[tuple[bool, Any]] = []  # (star, fn | column index)
        for item in node.items:
            if item.star:
                compiled.append((True, None))
            elif isinstance(item.expression, ColumnRef) and child_schema.has_column(item.expression.name):
                compiled.append((False, child_schema.index_of(item.expression.name)))
            else:
                compiled.append((False, _compile_or_defer(item.expression, child_schema)))
        all_batches = batches if first is None else itertools.chain([first], batches)

        def generate() -> Iterator[ColumnBatch]:
            seen: set[tuple] = set()
            for batch in all_batches:
                if node.distinct:
                    out_rows: list[tuple[Any, ...]] = []
                    for values in batch.value_rows():
                        out: list[Any] = []
                        for star, spec in compiled:
                            if star:
                                out.extend(values)
                            elif isinstance(spec, int):
                                out.append(values[spec])
                            else:
                                out.append(spec(values))
                        candidate = tuple(out)
                        if candidate in seen:
                            continue
                        seen.add(candidate)
                        out_rows.append(candidate)
                    if out_rows:
                        yield ColumnBatch.from_value_rows(schema, out_rows)
                    continue
                out_columns: list[list[Any]] = []
                computed: list[tuple[int, Any]] = []
                for star, spec in compiled:
                    if star:
                        out_columns.extend(batch.columns)
                    elif isinstance(spec, int):
                        out_columns.append(batch.columns[spec])
                    else:
                        slot: list[Any] = []
                        computed.append((len(out_columns), spec))
                        out_columns.append(slot)
                if computed:
                    for values in batch.value_rows():
                        for slot_index, fn in computed:
                            out_columns[slot_index].append(fn(values))
                yield ColumnBatch(schema, out_columns, len(batch))

        return schema, generate()

    def _aggregate_stream(self, node: AggregateNode) -> tuple[Schema, Iterator[ColumnBatch]]:
        child_schema, batches = self.stream(node.child)
        having_items = getattr(node, "having_items", [])
        agg_items = [(i, item) for i, item in enumerate(node.items) if item.aggregate]
        # HAVING-only aggregates get accumulators past the SELECT items'
        # index range; their values feed the predicate, never the output.
        extra_offset = len(node.items)
        agg_items += [(extra_offset + j, item) for j, item in enumerate(having_items)]
        fast = self._fast_aggregate_plan(node, child_schema, agg_items)
        first_values: tuple[Any, ...] | None = None
        rep_cols: list[int] | None = None
        if fast is not None:
            results, saw_rows, first_values = self._run_fast_aggregates(batches, fast)
            groups_out: list[tuple[tuple, dict[int, Any], tuple | None]] = []
            if saw_rows or not node.group_by:
                groups_out.append(((), results, first_values))
        else:
            grouped_plan = self._vector_group_plan(node, child_schema, agg_items)
            if grouped_plan is not None:
                rep_cols = self._representative_columns(node, child_schema)
                if rep_cols is not None:
                    prune = getattr(self._engine, "record_representative_prune", None)
                    if prune is not None:
                        prune(len(child_schema.columns) - len(rep_cols))
            if grouped_plan is not None and getattr(
                self._engine, "streaming_groupby", True
            ):
                groups_out, first_values = self._run_streaming_grouped(
                    node, child_schema, batches, grouped_plan, agg_items, rep_cols
                )
            elif grouped_plan is not None:
                # Legacy block path (``engine.streaming_groupby = False``):
                # materialize the whole input as one columnar block.  Kept as
                # the baseline the streaming benchmark measures against.
                block = ColumnBatch.concat(child_schema, list(batches))
                try:
                    groups_out, first_values = self._run_vector_grouped(
                        node, child_schema, block, grouped_plan, rep_cols
                    )
                    self._record_groupby("block", len(block))
                except _KernelUnsupported:
                    # e.g. int64 overflow risk in a SUM: replay the
                    # materialized block through the per-row accumulators.
                    groups_out, first_values = self._run_grouped_aggregates(
                        node, child_schema, iter([block]), agg_items, rep_cols
                    )
                    self._record_groupby("block_degraded", len(block))
            else:
                self._record_groupby("row", 0)
                groups_out, first_values = self._run_grouped_aggregates(
                    node, child_schema, batches, agg_items
                )
        # Output schema: mirrors the row executor exactly.
        columns = []
        for item in node.items:
            if item.aggregate:
                dtype = DataType.INTEGER if item.aggregate == "count" else DataType.FLOAT
                columns.append(Column(item.output_name, dtype))
            else:
                dtype = self._expression_type(item.expression, child_schema, first_values)
                columns.append(Column(item.output_name, dtype))
        schema = Schema(Executor._dedupe(columns))
        having_schema = Executor._having_schema(schema, node.items, having_items)
        having = (
            _compile_predicate_or_defer(node.having, having_schema)
            if node.having is not None
            else None
        )
        rep_schema = (
            child_schema
            if rep_cols is None
            else Schema([child_schema.columns[i] for i in rep_cols])
        )
        item_fns: dict[int, Any] = {}
        for i, item in enumerate(node.items):
            if not item.aggregate:
                item_fns[i] = _compile_or_defer(item.expression, rep_schema)

        def generate() -> Iterator[ColumnBatch]:
            out_rows: list[tuple[Any, ...]] = []
            for _key, accumulators, representative in groups_out:
                values: list[Any] = []
                for i, item in enumerate(node.items):
                    if item.aggregate:
                        result = accumulators[i]
                        values.append(result.result() if hasattr(result, "result") else result)
                    elif representative is None:
                        values.append(None)
                    else:
                        values.append(item_fns[i](representative))
                out = tuple(values)
                if having is not None:
                    extra: list[Any] = []
                    for j in range(len(having_items)):
                        result = accumulators[extra_offset + j]
                        extra.append(
                            result.result() if hasattr(result, "result") else result
                        )
                    if not having(out + out + tuple(extra)):
                        continue
                out_rows.append(out)
            if out_rows:
                yield ColumnBatch.from_value_rows(schema, out_rows)

        return schema, generate()

    @staticmethod
    def _representative_columns(
        node: AggregateNode, child_schema: Schema
    ) -> list[int] | None:
        """Column indices a group representative must retain, or None for all.

        A grouped aggregation keeps one representative row per group only to
        evaluate non-aggregate SELECT items; when those items (plus the
        grouping keys) reference an unambiguous subset of the child columns,
        storing just that subset bounds per-group memory by the referenced
        width instead of the full row width.  Returns None (keep full rows)
        when any reference fails to resolve — ambiguity and unknown-column
        errors must surface exactly as they would on the full path.
        """
        needed: set[int] = set()
        try:
            for expr in node.group_by:
                for ref in expr.referenced_columns():
                    needed.add(child_schema.index_of(ref))
            for item in node.items:
                if item.aggregate:
                    continue
                if item.star or item.expression is None:
                    return None
                for ref in item.expression.referenced_columns():
                    needed.add(child_schema.index_of(ref))
        except SchemaError:
            return None
        cols = sorted(needed)
        if len(cols) >= len(child_schema.columns):
            return None
        return cols

    def _fast_aggregate_plan(
        self, node: AggregateNode, child_schema: Schema, agg_items: list
    ) -> list[tuple[int, str, int | None]] | None:
        """Column-wise plan [(item index, aggregate, column index | None)] or None.

        Applies only to global (ungrouped) aggregates whose arguments are bare
        column references: those reduce per batch with C-speed builtins whose
        accumulation order matches the row accumulators value for value.
        """
        if node.group_by or node.having is not None:
            return None
        if any(not item.aggregate for item in node.items):
            # Non-aggregate outputs need a representative row; the general
            # path tracks one, the fast path does not.
            return None
        plan: list[tuple[int, str, int | None]] = []
        for i, item in agg_items:
            name = item.aggregate
            if name not in _FAST_AGGREGATES or item.distinct:
                return None
            if item.expression is None:
                plan.append((i, "count_star", None))
            elif isinstance(item.expression, ColumnRef) and child_schema.has_column(
                item.expression.name
            ):
                index = child_schema.index_of(item.expression.name)
                if name in ("sum", "avg") and child_schema.columns[index].dtype not in _KERNEL_DTYPES:
                    # sum(values, 0) over e.g. TEXT would raise where the row
                    # accumulator (seeded from the first value) does not.
                    return None
                plan.append((i, name, index))
            else:
                return None
        return plan

    @staticmethod
    def _run_fast_aggregates(
        batches: Iterator[ColumnBatch], plan: list[tuple[int, str, int | None]]
    ) -> tuple[dict[int, Any], bool, tuple[Any, ...] | None]:
        counts = {i: 0 for i, _name, _col in plan}
        totals: dict[int, Any] = {i: None for i, _name, _col in plan}
        saw_rows = False
        first_values: tuple[Any, ...] | None = None
        for batch in batches:
            if len(batch) == 0:
                continue
            if not saw_rows:
                first_values = next(batch.value_rows())
                saw_rows = True
            for i, name, col_index in plan:
                if name == "count_star":
                    counts[i] += len(batch)
                    continue
                column = batch.columns[col_index]
                if name == "count":
                    counts[i] += len(column) - _count_nulls(column)
                    continue
                present = [v for v in column if v is not None]
                if not present:
                    continue
                counts[i] += len(present)
                if name in ("sum", "avg"):
                    # sum(values, start) adds sequentially, reproducing the
                    # row accumulator's += order bit for bit.
                    start = totals[i] if totals[i] is not None else (0.0 if name == "avg" else 0)
                    totals[i] = sum(present, start)
                elif name == "min":
                    low = min(present)
                    totals[i] = low if totals[i] is None or low < totals[i] else totals[i]
                elif name == "max":
                    high = max(present)
                    totals[i] = high if totals[i] is None or high > totals[i] else totals[i]
        results: dict[int, Any] = {}
        for i, name, _col in plan:
            if name in ("count_star", "count"):
                results[i] = counts[i]
            elif name == "avg":
                results[i] = None if counts[i] == 0 else totals[i] / counts[i]
            elif name == "sum":
                results[i] = None if counts[i] == 0 else totals[i]
            else:
                results[i] = totals[i]
        return results, saw_rows, first_values

    @staticmethod
    def _reject_nan(column: Sequence[Any], reason: str) -> None:
        try:
            values = np.fromiter(
                (0.0 if v is None else v for v in column), np.float64, count=len(column)
            )
        except (TypeError, ValueError) as exc:
            raise _KernelUnsupported(str(exc)) from exc
        if bool(np.isnan(values).any()):
            raise _KernelUnsupported(reason)

    @staticmethod
    def _vector_group_plan(
        node: AggregateNode, child_schema: Schema, agg_items: list
    ) -> list[tuple[int, str, int | None]] | None:
        """Plan for the key-encoded numpy group-by, or None to run per-row.

        Requirements: grouping keys are bare column references (any dtype —
        TEXT keys use the dict-based encoder), and every aggregate is a
        non-distinct count/sum/avg/min/max over a bare column (or ``*``);
        sum/avg/min/max additionally need a fixed-width numeric column so
        the segmented numpy reductions apply.
        """
        if not node.group_by:
            return None
        for expr in node.group_by:
            if not (isinstance(expr, ColumnRef) and child_schema.has_column(expr.name)):
                return None
        plan: list[tuple[int, str, int | None]] = []
        for i, item in agg_items:
            name = item.aggregate
            if name not in _FAST_AGGREGATES or item.distinct:
                return None
            if item.expression is None:
                plan.append((i, "count_star", None))
                continue
            if not (
                isinstance(item.expression, ColumnRef)
                and child_schema.has_column(item.expression.name)
            ):
                return None
            index = child_schema.index_of(item.expression.name)
            if name != "count" and child_schema.columns[index].dtype not in _KERNEL_DTYPES:
                return None
            plan.append((i, name, index))
        return plan

    def _run_vector_grouped(
        self,
        node: AggregateNode,
        child_schema: Schema,
        block: ColumnBatch,
        plan: list[tuple[int, str, int | None]],
        rep_cols: list[int] | None = None,
    ) -> tuple[list[tuple[tuple, dict[int, Any], tuple | None]], tuple[Any, ...] | None]:
        """Key-encoded group-by: one factorization, then segmented reductions.

        Group keys become dense first-appearance int64 codes
        (:func:`~repro.common.keycodes.encode_group_keys`), so emitting
        groups in code order reproduces the row executor's dict-insertion
        order.  Accumulation uses ``np.bincount`` (a strictly sequential
        C loop, matching the row accumulators' per-group addition order bit
        for bit — unlike ``np.sum``'s pairwise summation) and
        ``np.minimum/maximum.reduceat`` over stable-sorted segments.
        """
        n = len(block)
        if n == 0:
            return [], None
        columns = block.columns
        first_values = tuple(col[0] for col in columns)
        key_indices = [child_schema.index_of(expr.name) for expr in node.group_by]
        for index in key_indices:
            # NaN grouping keys: np.unique collapses all NaNs into one group
            # while the row path's dict keeps distinct NaN objects distinct —
            # only the per-row accumulators reproduce that faithfully.
            if child_schema.columns[index].dtype is DataType.FLOAT:
                self._reject_nan(columns[index], "NaN grouping key")
        encoding = encode_group_keys(
            [columns[i] for i in key_indices],
            [child_schema.columns[i].dtype for i in key_indices],
        )
        codes, group_count = encoding.codes, encoding.group_count
        star_counts: list[int] | None = None
        per_item: dict[int, list[Any]] = {}
        for i, name, col_index in plan:
            if name == "count_star":
                if star_counts is None:
                    star_counts = np.bincount(codes, minlength=group_count).tolist()
                per_item[i] = star_counts
                continue
            column = columns[col_index]
            present = ~_null_mask_of(column)
            sub_codes = codes[present]
            group_sizes = np.bincount(sub_codes, minlength=group_count)
            if name == "count":
                per_item[i] = group_sizes.tolist()
                continue
            dtype = _KERNEL_DTYPES[child_schema.columns[col_index].dtype]
            try:
                values = np.fromiter(
                    (0 if v is None else v for v in column), dtype, count=n
                )[present]
            except (OverflowError, TypeError, ValueError) as exc:
                # e.g. Python ints beyond int64: the row accumulators'
                # arbitrary precision is the only faithful path.
                raise _KernelUnsupported(str(exc)) from exc
            sizes = group_sizes.tolist()
            if name == "avg":
                totals = np.bincount(
                    sub_codes, weights=values.astype(np.float64), minlength=group_count
                ).tolist()
                per_item[i] = [
                    None if size == 0 else total / size
                    for total, size in zip(totals, sizes)
                ]
            elif name == "sum":
                if dtype is np.float64:
                    totals = np.bincount(
                        sub_codes, weights=values, minlength=group_count
                    ).tolist()
                else:
                    ints = values.astype(np.int64)
                    peak = int(np.abs(ints).max()) if ints.size else 0
                    biggest = int(group_sizes.max()) if group_sizes.size else 0
                    if peak and biggest and peak > (2**62) // biggest:
                        raise _KernelUnsupported("int64 overflow risk in SUM")
                    acc = np.zeros(group_count, dtype=np.int64)
                    np.add.at(acc, sub_codes, ints)
                    totals = acc.tolist()
                per_item[i] = [
                    None if size == 0 else total
                    for total, size in zip(totals, sizes)
                ]
            else:  # min / max over stable-sorted segments
                if dtype is np.float64 and values.size and bool(np.isnan(values).any()):
                    # The row fold never replaces on NaN (NaN < x is False),
                    # making min/max position-dependent; reduceat cannot
                    # reproduce that, so replay through the accumulators.
                    raise _KernelUnsupported("NaN in MIN/MAX column")
                out: list[Any] = [None] * group_count
                if sub_codes.size:
                    seg_order = np.argsort(sub_codes, kind="stable")
                    seg_codes = sub_codes[seg_order]
                    seg_values = values[seg_order]
                    seg_starts = np.flatnonzero(
                        np.concatenate(([True], seg_codes[1:] != seg_codes[:-1]))
                    )
                    reducer = np.minimum if name == "min" else np.maximum
                    reduced = reducer.reduceat(seg_values, seg_starts)
                    for code, value in zip(
                        seg_codes[seg_starts].tolist(), reduced.tolist()
                    ):
                        out[code] = value
                per_item[i] = out
        if rep_cols is None:
            representatives = [
                tuple(col[row] for col in columns)
                for row in encoding.first_rows.tolist()
            ]
        else:
            representatives = [
                tuple(columns[i][row] for i in rep_cols)
                for row in encoding.first_rows.tolist()
            ]
        groups_out: list[tuple[tuple, dict[int, Any], tuple | None]] = []
        for g in range(group_count):
            accumulators = {i: per_item[i][g] for i, _name, _col in plan}
            groups_out.append(((), accumulators, representatives[g]))
        return groups_out, first_values

    def _record_groupby(self, path: str, peak_rows: int) -> None:
        """Report which grouped-aggregation path ran and its peak resident
        rows to the engine (surfaced by the runtime's metrics snapshot)."""
        record = getattr(self._engine, "record_groupby", None)
        if record is not None:
            record(path, peak_rows)

    def _run_streaming_grouped(
        self,
        node: AggregateNode,
        child_schema: Schema,
        batches: Iterator[ColumnBatch],
        plan: list[tuple[int, str, int | None]],
        agg_items: list,
        rep_cols: list[int] | None = None,
    ) -> tuple[list[tuple[tuple, dict[int, Any], tuple | None]], tuple[Any, ...] | None]:
        """Streaming two-pass group-by: encode per batch, merge partials.

        Each batch's grouping keys are factorized locally and mapped through
        a shared :class:`~repro.common.keycodes.IncrementalGroupEncoder`
        dictionary, and its values fold into per-group accumulator arrays
        (:class:`_StreamingGroupAggregator`) — so peak resident rows are
        O(batch_size + groups) instead of the whole input, while per-group
        accumulation order stays strictly sequential in row order (the
        bit-for-bit parity contract with the row executor's accumulators).

        Shapes the vector kernels cannot reproduce faithfully (NaN grouping
        keys, NaN in MIN/MAX, int64 overflow risk) are detected *before* a
        batch is folded in; the stream then degrades by seeding per-row
        accumulators from the vectorized partial state and folding the
        remaining rows through them — never re-reading consumed input.
        """
        key_indices = [child_schema.index_of(expr.name) for expr in node.group_by]
        key_dtypes = [child_schema.columns[i].dtype for i in key_indices]
        float_keys = [
            i for i in key_indices if child_schema.columns[i].dtype is DataType.FLOAT
        ]
        encoder = IncrementalGroupEncoder(key_dtypes)
        state = _StreamingGroupAggregator(plan, child_schema)
        representatives: list[tuple[Any, ...]] = []
        first_values: tuple[Any, ...] | None = None
        peak = 0
        iterator = iter(batches)
        for batch in iterator:
            n = len(batch)
            if n == 0:
                continue
            columns = batch.columns
            if first_values is None:
                first_values = next(batch.value_rows())
            try:
                for index in float_keys:
                    self._reject_nan(columns[index], "NaN grouping key")
                prepared = state.prepare(columns, n)
            except _KernelUnsupported:
                groups_out = self._degrade_streaming(
                    node,
                    child_schema,
                    agg_items,
                    state,
                    key_indices,
                    representatives,
                    itertools.chain([batch], iterator),
                    rep_cols,
                )
                self._record_groupby("stream_degraded", peak)
                return groups_out, first_values
            codes, new_first_rows = encoder.encode_batch(
                [columns[i] for i in key_indices]
            )
            if rep_cols is None:
                for row in new_first_rows:
                    representatives.append(
                        tuple(column[row] for column in columns)
                    )
            else:
                for row in new_first_rows:
                    representatives.append(
                        tuple(columns[i][row] for i in rep_cols)
                    )
            state.accumulate(codes, prepared, encoder.group_count)
            peak = max(peak, n + encoder.group_count)
        per_item = state.results()
        groups_out = [
            ((), {i: per_item[i][g] for i, _name, _col in plan}, representatives[g])
            for g in range(encoder.group_count)
        ]
        self._record_groupby("stream", peak)
        return groups_out, first_values

    def _degrade_streaming(
        self,
        node: AggregateNode,
        child_schema: Schema,
        agg_items: list,
        state: _StreamingGroupAggregator,
        key_indices: list[int],
        representatives: list[tuple[Any, ...]],
        remaining: Iterator[ColumnBatch],
        rep_cols: list[int] | None = None,
    ) -> list[tuple[tuple, dict[int, Any], tuple | None]]:
        """Hand a partially-streamed group-by over to the row accumulators.

        The vectorized per-group state is loaded into freshly-made row
        accumulators (every already-consumed row was folded in strictly
        sequential order, so the seeded state is exactly what the row path
        would hold at this point); the tripping batch and everything after
        it then fold per row.
        """
        items_by_index = dict(agg_items)
        groups: dict[tuple, dict[int, Any]] = {}
        group_reprs: dict[tuple, tuple[Any, ...]] = {}
        if rep_cols is None:
            key_positions = key_indices
        else:
            positions = {col: pos for pos, col in enumerate(rep_cols)}
            key_positions = [positions[i] for i in key_indices]
        for code, repr_values in enumerate(representatives):
            key = tuple(repr_values[i] for i in key_positions)
            groups[key] = state.seeded_accumulators(code, items_by_index)
            group_reprs[key] = repr_values
        out, _first = self._fold_grouped_rows(
            node, child_schema, remaining, agg_items, groups, group_reprs, rep_cols
        )
        return out

    def _run_grouped_aggregates(
        self,
        node: AggregateNode,
        child_schema: Schema,
        batches: Iterator[ColumnBatch],
        agg_items: list,
        rep_cols: list[int] | None = None,
    ) -> tuple[list[tuple[tuple, dict[int, Any], tuple | None]], tuple[Any, ...] | None]:
        return self._fold_grouped_rows(
            node, child_schema, batches, agg_items, rep_cols=rep_cols
        )

    def _fold_grouped_rows(
        self,
        node: AggregateNode,
        child_schema: Schema,
        batches: Iterator[ColumnBatch],
        agg_items: list,
        groups: dict[tuple, dict[int, Any]] | None = None,
        group_reprs: dict[tuple, tuple[Any, ...]] | None = None,
        rep_cols: list[int] | None = None,
    ) -> tuple[list[tuple[tuple, dict[int, Any], tuple | None]], tuple[Any, ...] | None]:
        group_fns = [_compile_or_defer(expr, child_schema) for expr in node.group_by]
        agg_fns: dict[int, Any] = {}
        for i, item in agg_items:
            if item.expression is not None:
                agg_fns[i] = _compile_or_defer(item.expression, child_schema)
        if groups is None:
            groups = {}
        if group_reprs is None:
            group_reprs = {}
        first_values: tuple[Any, ...] | None = None
        for batch in batches:
            for values in batch.value_rows():
                if first_values is None:
                    first_values = values
                key = tuple(fn(values) for fn in group_fns)
                accumulators = groups.get(key)
                if accumulators is None:
                    accumulators = {
                        i: make_aggregate(
                            item.aggregate,
                            count_star=(item.expression is None),
                            distinct=item.distinct,
                        )
                        for i, item in agg_items
                    }
                    groups[key] = accumulators
                    group_reprs[key] = (
                        values
                        if rep_cols is None
                        else tuple(values[i] for i in rep_cols)
                    )
                for i, item in agg_items:
                    value = 1 if item.expression is None else agg_fns[i](values)
                    accumulators[i].add(value)
        if not groups and not node.group_by:
            groups[()] = {
                i: make_aggregate(
                    item.aggregate,
                    count_star=(item.expression is None),
                    distinct=item.distinct,
                )
                for i, item in agg_items
            }
            group_reprs[()] = None  # type: ignore[assignment]
        out = [(key, accs, group_reprs[key]) for key, accs in groups.items()]
        return out, first_values

    def _sort_stream(self, node: SortNode) -> tuple[Schema, Iterator[ColumnBatch]]:
        schema, batches = self.stream(node.child)
        key_fns = [_compile_or_defer(item.expression, schema) for item in node.order_by]

        def generate() -> Iterator[ColumnBatch]:
            rows: list[tuple[Any, ...]] = []
            for batch in batches:
                rows.extend(batch.value_rows())
            # Stable sort applied right-to-left, exactly like the row executor.
            for item, fn in zip(reversed(node.order_by), reversed(key_fns)):

                def sort_key(values: tuple[Any, ...], fn=fn) -> tuple:
                    value = fn(values)
                    return (value is None, value)

                rows.sort(key=sort_key, reverse=item.descending)
            for start in range(0, len(rows), self._batch_rows):
                yield ColumnBatch.from_value_rows(schema, rows[start : start + self._batch_rows])

        return schema, generate()

    def _limit_stream(self, node: LimitNode) -> tuple[Schema, Iterator[ColumnBatch]]:
        schema, batches = self.stream(node.child)
        start = node.offset or 0
        limit = node.limit

        def generate() -> Iterator[ColumnBatch]:
            to_skip = start
            remaining = limit
            for batch in batches:
                rows = list(batch.value_rows())
                if to_skip:
                    if to_skip >= len(rows):
                        to_skip -= len(rows)
                        continue
                    rows = rows[to_skip:]
                    to_skip = 0
                if remaining is not None:
                    if remaining <= 0:
                        return
                    rows = rows[:remaining]
                    remaining -= len(rows)
                if rows:
                    yield ColumnBatch.from_value_rows(schema, rows)
                if remaining is not None and remaining <= 0:
                    return

        return schema, generate()

    # ------------------------------------------------------------------ helpers
    @staticmethod
    def _expression_type(
        expression: Expression | None,
        child_schema: Schema,
        first_values: tuple[Any, ...] | None,
    ) -> DataType:
        """Mirror of the row executor's output-type inference, over batches."""
        if expression is None:
            return DataType.INTEGER
        if isinstance(expression, ColumnRef) and child_schema.has_column(expression.name):
            return child_schema.column(expression.name).dtype
        if first_values is not None:
            try:
                return infer_type(expression.compile(child_schema)(first_values))
            except Exception:  # noqa: BLE001 - fall back to float, like the row path
                return DataType.FLOAT
        return DataType.FLOAT


class _StreamingGroupAggregator:
    """Growable per-group accumulator arrays for the streaming group-by.

    One instance serves one aggregation; arrays are indexed by the global
    group codes handed out by the shared incremental key dictionary and
    grow geometrically as new groups appear.  The merge discipline keeps
    every per-group fold strictly sequential in row order:

    * float SUM/AVG use a **seeded bincount** — the running totals ride
      along as one leading entry per group, so ``np.bincount``'s
      sequential C loop continues the exact ``((t + v1) + v2)...`` fold
      the row accumulators perform (plain partial-sum merging would round
      differently);
    * integer SUM uses ``np.add.at`` (unbuffered, in input order) with a
      conservative overflow guard that trips *before* a batch is folded;
    * COUNT merges with plain bincount addition and MIN/MAX with segmented
      reductions — both order-insensitive (NaN is rejected up front).
    """

    def __init__(
        self, plan: list[tuple[int, str, int | None]], child_schema: Schema
    ) -> None:
        self._plan = plan
        self._size = 0
        self._cap = 0
        self._state: dict[int, dict[str, Any]] = {}
        for i, name, col in plan:
            st: dict[str, Any] = {}
            if name in ("count_star", "count"):
                st["counts"] = np.zeros(0, dtype=np.int64)
            else:
                dtype = _KERNEL_DTYPES[child_schema.columns[col].dtype]
                st["dtype"] = dtype
                if name == "sum":
                    st["float"] = dtype is np.float64
                    st["acc"] = np.zeros(
                        0, dtype=np.float64 if st["float"] else np.int64
                    )
                    st["sizes"] = np.zeros(0, dtype=np.int64)
                    st["abs_max"] = 0
                elif name == "avg":
                    st["acc"] = np.zeros(0, dtype=np.float64)
                    st["sizes"] = np.zeros(0, dtype=np.int64)
                else:  # min / max
                    st["vals"] = np.zeros(0, dtype=dtype)
                    st["has"] = np.zeros(0, dtype=np.bool_)
            self._state[i] = st

    # ---------------------------------------------------------------- batches
    def prepare(self, columns: list, n: int) -> list:
        """Pack and vet one batch's aggregate inputs **before** any state
        mutation, raising :class:`_KernelUnsupported` on shapes the vector
        fold cannot reproduce faithfully (so the caller can still hand the
        untouched batch to the row accumulators)."""
        prepared: list[Any] = []
        # Several aggregates over one column (count/sum/avg/max of `value`)
        # share a single null-mask pass and a single packed array per batch.
        present_cache: dict[int, np.ndarray] = {}
        packed_cache: dict[int, np.ndarray] = {}
        for i, name, col in self._plan:
            if name == "count_star":
                prepared.append(None)
                continue
            present = present_cache.get(col)
            if present is None:
                present = ~_null_mask_of(columns[col])
                present_cache[col] = present
            if name == "count":
                prepared.append((present, None))
                continue
            st = self._state[i]
            dtype = st["dtype"]
            values = packed_cache.get(col)
            if values is None:
                try:
                    values = np.fromiter(
                        (0 if v is None else v for v in columns[col]),
                        dtype,
                        count=n,
                    )
                except (OverflowError, TypeError, ValueError) as exc:
                    # e.g. Python ints beyond int64: only the row
                    # accumulators' arbitrary precision is faithful.
                    raise _KernelUnsupported(str(exc)) from exc
                packed_cache[col] = values
            if name in ("min", "max"):
                if dtype is np.float64 and bool(np.isnan(values[present]).any()):
                    # The row fold never replaces on NaN, making MIN/MAX
                    # position-dependent; reductions cannot reproduce that.
                    raise _KernelUnsupported("NaN in MIN/MAX column")
                prepared.append((present, values))
                continue
            if name == "sum" and not st["float"]:
                ints = values.astype(np.int64, copy=False)
                peak = int(np.abs(ints[present]).max()) if present.any() else 0
                if peak < 0 or (peak and st["abs_max"] + peak * n > 2**62):
                    raise _KernelUnsupported("int64 overflow risk in SUM")
                prepared.append((present, ints))
                continue
            prepared.append((present, values))
        return prepared

    def accumulate(self, codes: np.ndarray, prepared: list, group_count: int) -> None:
        """Fold one prepared batch into the per-group state."""
        self._ensure(group_count)
        size = self._size
        for (i, name, _col), payload in zip(self._plan, prepared):
            st = self._state[i]
            if name == "count_star":
                st["counts"][:size] += np.bincount(codes, minlength=size)
                continue
            present, values = payload
            sub = codes[present]
            if name == "count":
                st["counts"][:size] += np.bincount(sub, minlength=size)
                continue
            if name == "avg" or (name == "sum" and st.get("float")):
                weights = values[present]
                if weights.dtype != np.float64:
                    weights = weights.astype(np.float64)
                seeded_codes = np.concatenate(
                    [np.arange(size, dtype=np.int64), sub]
                )
                seeded_weights = np.concatenate([st["acc"][:size], weights])
                st["acc"][:size] = np.bincount(
                    seeded_codes, weights=seeded_weights, minlength=size
                )
                st["sizes"][:size] += np.bincount(sub, minlength=size)
                continue
            if name == "sum":
                np.add.at(st["acc"][:size], sub, values[present])
                st["sizes"][:size] += np.bincount(sub, minlength=size)
                if sub.size:
                    st["abs_max"] = max(
                        st["abs_max"], int(np.abs(st["acc"][:size]).max())
                    )
                continue
            # min / max: per-batch segmented reduction, then an
            # order-insensitive merge into the running extremes.
            if not sub.size:
                continue
            vals = values[present]
            order = np.argsort(sub, kind="stable")
            seg_codes = sub[order]
            seg_vals = vals[order]
            seg_starts = np.flatnonzero(
                np.concatenate(([True], seg_codes[1:] != seg_codes[:-1]))
            )
            reducer = np.minimum if name == "min" else np.maximum
            reduced = reducer.reduceat(seg_vals, seg_starts)
            idx = seg_codes[seg_starts]
            current = st["vals"][idx]
            merged = np.where(st["has"][idx], reducer(current, reduced), reduced)
            st["vals"][idx] = merged
            st["has"][idx] = True

    def _ensure(self, group_count: int) -> None:
        self._size = group_count
        if group_count <= self._cap:
            return
        cap = max(64, self._cap * 2, group_count)
        for st in self._state.values():
            for key in ("counts", "acc", "sizes", "vals", "has"):
                if key in st:
                    old = st[key]
                    grown = np.zeros(cap, dtype=old.dtype)
                    grown[: len(old)] = old
                    st[key] = grown
        self._cap = cap

    # ---------------------------------------------------------------- results
    def results(self) -> dict[int, list[Any]]:
        """Per-item result lists indexed by global group code (Python
        scalars, matching the row accumulators' output types)."""
        size = self._size
        out: dict[int, list[Any]] = {}
        for i, name, _col in self._plan:
            st = self._state[i]
            if name in ("count_star", "count"):
                out[i] = st["counts"][:size].tolist()
            elif name in ("sum", "avg"):
                totals = st["acc"][:size].tolist()
                sizes = st["sizes"][:size].tolist()
                if name == "avg":
                    out[i] = [
                        None if count == 0 else total / count
                        for total, count in zip(totals, sizes)
                    ]
                else:
                    out[i] = [
                        None if count == 0 else total
                        for total, count in zip(totals, sizes)
                    ]
            else:
                values = st["vals"][:size].tolist()
                present = st["has"][:size].tolist()
                out[i] = [
                    value if has else None for value, has in zip(values, present)
                ]
        return out

    def seeded_accumulators(self, code: int, items_by_index: dict) -> dict[int, Any]:
        """Row accumulators pre-loaded with one group's vectorized state
        (the degrade handoff: consumed rows were folded in row order, so
        this state is bit-for-bit what the row path would hold)."""
        accumulators: dict[int, Any] = {}
        for i, name, _col in self._plan:
            item = items_by_index[i]
            accumulator = make_aggregate(
                item.aggregate,
                count_star=(item.expression is None),
                distinct=item.distinct,
            )
            st = self._state[i]
            if name in ("count_star", "count"):
                accumulator.load(int(st["counts"][code]))
            elif name == "sum":
                if int(st["sizes"][code]):
                    total = st["acc"][code]
                    accumulator.load(float(total) if st["float"] else int(total))
            elif name == "avg":
                accumulator.load(float(st["acc"][code]), int(st["sizes"][code]))
            else:
                if bool(st["has"][code]):
                    accumulator.load(st["vals"][code].item())
            accumulators[i] = accumulator
        return accumulators
