"""The traced run's per-layer ledger.

Two sources of spans feed it:

* the spans the program already emits (``query``, ``queued``, ``planned``,
  ``executed``, ``plan_step``, ``admitted``, ``step.*``, ``cast.*``,
  ``join.*``, ``op.*`` and the resilience events), captured by installing an
  enabled :class:`Tracer` with ``tracer_scope`` in each client thread;
* ``bench.*`` spans from wrappers this module installs, for the traced run
  only, around the public entry points of layers that emit no span of their
  own (the runtime's blocking ``execute``, SQL parse, island routing, catalog
  lookups, result cache, shims, engine imports, intent journal, island
  execution, engine execution, streaming append).

Every client operation is the root of one trace (a ``bench.op`` span).  Its
wall time is split into layers by sweeping the operation's timeline: each
instant goes to the innermost spans active at that instant, shared equally
when several threads are busy at once, and instants only the root covers are
*unattributed*.  So per operation the layer times plus the unattributed time
add up to the wall time exactly.

``op.*`` operator spans are excluded from the sweep: each is recorded as its
operator's cumulative pull time (subtree inclusive), not as an interval.
Operator *self* time comes from a wrapper around the pull loop instead.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

from repro.core.catalog import BigDawgCatalog
from repro.core.islands.base import Island
from repro.core.islands.relational import RelationalIsland
from repro.core.shims import RelationalShim
from repro.engines.array.engine import ArrayEngine
from repro.engines.base import Engine
from repro.engines.keyvalue.engine import KeyValueEngine
from repro.engines.relational import vectorized
from repro.engines.relational.engine import RelationalEngine
from repro.engines.relational.sql import parser as sql_parser
from repro.engines.streaming.engine import StreamingEngine
from repro.observability.tracing import capture_context, get_tracer, with_context
from repro.runtime.cache import ResultCache
from repro.runtime.journal import WriteIntentJournal
from repro.runtime.scheduler import PolystoreRuntime

from harness import median, percentile

LAYERS = (
    "runtime.scheduler", "runtime.admission", "runtime.cache", "runtime.journal",
    "runtime.resilience", "core.query", "core.catalog", "core.islands", "core.shims",
    "core.cast", "common.serialization", "engines.relational", "engines.array",
    "engines.keyvalue", "engines.streaming",
)

#: Relational plan node types whose self time the ledger reports.
OPERATORS = ("ScanNode", "IndexScanNode", "FilterNode", "JoinNode", "PruneNode",
             "ProjectNode", "AggregateNode", "SortNode", "LimitNode", "SubqueryNode")

_EXACT = {
    "bench.op": "unattributed",
    "bench.runtime.execute": "runtime.scheduler",
    "query": "runtime.scheduler", "queued": "runtime.scheduler",
    "executed": "runtime.scheduler", "plan_step": "runtime.scheduler",
    "admitted": "runtime.admission",
    "retry": "runtime.resilience", "breaker_transition": "runtime.resilience",
    "recovery": "runtime.journal",
    "planned": "core.query",
    "cast.encode": "common.serialization", "cast.decode": "common.serialization",
    "bench.sql.parse": "engines.relational",
    "bench.relational.execute": "engines.relational",
    "bench.engine.import_relation": "core.shims",
    "bench.array.execute": "engines.array",
    "bench.keyvalue.search": "engines.keyvalue",
    "bench.streaming.append": "engines.streaming",
}
_PREFIXES = (
    ("failover", "runtime.resilience"), ("step.", "core.query"), ("cast", "core.cast"),
    ("join.", "engines.relational"), ("bench.cache.", "runtime.cache"),
    ("bench.journal.", "runtime.journal"), ("bench.catalog.", "core.catalog"),
    ("bench.island.", "core.islands"), ("bench.shim.", "core.shims"),
)


def layer_of(name: str) -> str:
    layer = _EXACT.get(name)
    if layer is not None:
        return layer
    for prefix, layer in _PREFIXES:
        if name.startswith(prefix):
            return layer
    return "unmapped"


# -------------------------------------------------------------- instrumentation
class _ContextPool:
    """Hands the submitting thread's trace context to the runtime's pool workers.

    The runtime's ``submit`` does not carry the caller's ``tracer_scope`` into
    its worker threads, so without this the spans of a query would start a
    trace of their own instead of nesting under the client's ``bench.op``.
    """

    def __init__(self, pool) -> None:
        self.pool = pool

    def submit(self, fn, *args, **kwargs):
        return self.pool.submit(with_context, capture_context(), fn, *args, **kwargs)

    def shutdown(self, *args, **kwargs):
        return self.pool.shutdown(*args, **kwargs)


def _spanned(fn: Callable, name: str, annotate: Callable[[Any, Any], None] | None = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = get_tracer()
        if not tracer.enabled:
            return fn(*args, **kwargs)
        with tracer.span(name, kind="bench") as span:
            result = fn(*args, **kwargs)
            if annotate is not None:
                annotate(span, result)
            return result
    return wrapper


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


class Instrumentation:
    """Installs the benchmark-side wrappers; :meth:`uninstall` restores everything."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._pulls = threading.local()
        #: Operator type -> self seconds, summed over the traced window.
        self.operator_self_s: dict[str, float] = defaultdict(float)

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap_method(self, cls: type, attr: str, name: str, annotate=None) -> None:
        self._patch(cls, attr, _spanned(cls.__dict__[attr], name, annotate))

    def install(self, runtime: PolystoreRuntime) -> None:
        # The client's side of a runtime call (submit, hand-off to a pool
        # worker, waking on the result) is the scheduler's cost too.
        self._wrap_method(PolystoreRuntime, "execute", "bench.runtime.execute")
        original_parse = sql_parser.parse_sql
        wrapped_parse = _spanned(original_parse, "bench.sql.parse")
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, "parse_sql", None) is original_parse):
                self._patch(module, "parse_sql", wrapped_parse)
        self._wrap_method(RelationalIsland, "referenced_tables", "bench.island.referenced_tables")
        for attr in ("locate", "locate_for_read", "fresh_locations"):
            self._wrap_method(BigDawgCatalog, attr, f"bench.catalog.{attr}")
        self._wrap_method(ResultCache, "get", "bench.cache.get")
        self._wrap_method(ResultCache, "put", "bench.cache.put",
                          lambda span, stored: span.set("stored", bool(stored)))
        self._wrap_method(RelationalShim, "fetch_relation", "bench.shim.fetch_relation",
                          lambda span, relation: span.set("rows", len(relation.rows)))
        for cls in _subclasses(Engine):
            if "import_relation" in cls.__dict__:
                self._wrap_method(cls, "import_relation", "bench.engine.import_relation")
        self._wrap_method(WriteIntentJournal, "begin", "bench.journal.begin")
        self._wrap_method(WriteIntentJournal, "commit_intent", "bench.journal.commit")
        for cls in _subclasses(Island):
            if "execute" in cls.__dict__:
                self._wrap_method(cls, "execute", f"bench.island.execute.{getattr(cls, 'name', cls.__name__)}")
        self._wrap_method(StreamingEngine, "append", "bench.streaming.append")
        self._wrap_method(RelationalEngine, "execute", "bench.relational.execute")
        self._wrap_method(ArrayEngine, "execute", "bench.array.execute")
        for attr in ("text_search", "rows_with_min_documents"):
            self._wrap_method(KeyValueEngine, attr, "bench.keyvalue.search")
        self._patch(vectorized, "observe_stream", self._observing(vectorized.observe_stream))
        self._patch(runtime, "_pool", _ContextPool(runtime._pool))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _observing(self, observe_stream: Callable) -> Callable:
        """Wrap the operator pull loop to charge each operator its self time.

        A pull on an operator runs its children's pulls on the same thread;
        a per-thread stack subtracts them.  Work a child hands to morsel
        worker threads is waited for inside the parent's pull and so stays in
        the parent's self time.
        """
        pulls = self._pulls
        totals = self.operator_self_s
        lock = self._lock

        def observe(node, batches, profiler, tracer):
            inner = observe_stream(node, batches, profiler, tracer)
            label = type(node).__name__

            def generate():
                try:
                    while True:
                        stack = getattr(pulls, "stack", None)
                        if stack is None:
                            stack = pulls.stack = []
                        frame = [0.0]
                        stack.append(frame)
                        began = time.perf_counter()
                        try:
                            batch = next(inner)
                        except StopIteration:
                            return
                        finally:
                            elapsed = time.perf_counter() - began
                            stack.pop()
                            if stack:
                                stack[-1][0] += elapsed
                            with lock:
                                totals[label] += elapsed - frame[0]
                        yield batch
                finally:
                    inner.close()

            return generate()

        return observe


# --------------------------------------------------------------------- analysis
def _attribute(spans: list, root) -> dict[str, float]:
    """Split ``root``'s wall time over layers by sweeping its timeline."""
    lo, hi = root.start_s, root.start_s + root.duration_s
    parent = {span.span_id: span.parent_id for span in spans}
    intervals = []
    for span in spans:
        if span.name.startswith("op."):
            continue
        start = max(lo, span.start_s)
        end = min(hi, span.start_s + span.duration_s)
        if end > start:
            intervals.append((start, end, span))
    intervals.sort(key=lambda item: item[0])
    bounds = sorted({lo, hi} | {s for s, _, _ in intervals} | {e for _, e, _ in intervals})
    shares: dict[str, float] = defaultdict(float)
    active: dict[int, tuple[float, Any]] = {}
    nxt = 0
    for t0, t1 in zip(bounds, bounds[1:]):
        while nxt < len(intervals) and intervals[nxt][0] <= t0:
            _, end, span = intervals[nxt]
            active[span.span_id] = (end, span)
            nxt += 1
        for span_id in [k for k, (end, _) in active.items() if end <= t0]:
            del active[span_id]
        if not active:
            shares["unattributed"] += t1 - t0
            continue
        covered: set[int] = set()
        for span_id in active:
            up = parent.get(span_id)
            while up is not None and up not in covered:
                covered.add(up)
                up = parent.get(up)
        leaves = [span for span_id, (_, span) in active.items() if span_id not in covered]
        share = (t1 - t0) / len(leaves)
        for span in leaves:
            shares[layer_of(span.name)] += share
    return shares


def per_layer_metrics(spans: list, instrumentation: Instrumentation, deltas: dict,
                      ops_per_s_untraced: float, ops_per_s_traced: float,
                      alerts: int) -> tuple[dict[str, float], dict[str, Any]]:
    """The traced run's per-layer metrics, plus diagnostics for the report."""
    by_trace: dict[int, list] = defaultdict(list)
    for span in spans:
        by_trace[span.trace_id].append(span)
    op_layers: list[dict[str, float]] = []
    op_kinds: list[str] = []
    walls: list[float] = []
    for members in by_trace.values():
        roots = [s for s in members if s.name == "bench.op" and s.parent_id is None]
        if len(roots) != 1:
            continue
        op_layers.append(_attribute(members, roots[0]))
        op_kinds.append(roots[0].attrs.get("op", ""))
        walls.append(roots[0].duration_s)
    ops = max(1, len(op_layers))
    writes = max(1, sum(kind in ("write", "cast") for kind in op_kinds))

    durations: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        durations[span.name].append(span.duration_s)

    def named(prefix: str) -> list:
        return [s for s in spans if s.name.startswith(prefix)]

    def p50_of(name: str, scale: float) -> float:
        return median(durations.get(name, [])) * scale

    def layer_p50(layer: str) -> float:
        return median([l[layer] for l in op_layers if l.get(layer, 0.0) > 0.0]) * 1e3

    def layer_total(layer: str) -> float:
        return sum(l.get(layer, 0.0) for l in op_layers)

    fetches = named("bench.shim.fetch_relation")
    shim_ops = len({s.trace_id for s in fetches})
    hits, misses = deltas.get("cache_hits", 0), deltas.get("cache_misses", 0)
    casts = max(1, len(durations.get("cast", [])))
    cast_rows = sum(s.attrs.get("rows", 0) for s in named("cast.export"))
    encoded = [s.attrs.get("bytes", 0) for s in named("cast.encode")]
    cast_import = (sum(durations.get("cast.import", []))
                   - sum(d for name in ("cast.export", "cast.encode", "cast.decode", "cast.stage")
                         for d in durations.get(name, [])))
    executes = max(1, len(durations.get("bench.relational.execute", [])))
    unattributed = layer_total("unattributed")
    wall = sum(walls)

    metrics: dict[str, float] = {
        "runtime.self_ms_p50": layer_p50("runtime.scheduler"),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.lookup_us_p50": p50_of("bench.cache.get", 1e6),
        "cache.put_refused": float(sum(not s.attrs.get("stored", True)
                                       for s in named("bench.cache.put"))),
        "admission.wait_ms_p99": percentile(durations.get("admitted", []), 99) * 1e3,
        "admission.held_ms_total": deltas.get("admission_held_s_total", 0.0) * 1e3,
        "journal.intents_per_write": deltas.get("intents_written", 0) / writes,
        "journal.ms_per_write": layer_total("runtime.journal") * 1e3 / writes,
        "resilience.retries": float(deltas.get("retry_attempts", 0)),
        "resilience.breaker_rejections": float(deltas.get("breaker_rejections", 0)),
        "resilience.failovers": float(deltas.get("failover_total", 0)),
        "plan.ms_p50": p50_of("planned", 1e3),
        "plan.calls_per_op": len(durations.get("planned", [])) / ops,
        "catalog.locate_calls_per_op": len(named("bench.catalog.")) / ops,
        "catalog.us_per_op": layer_total("core.catalog") * 1e6 / ops,
        "island.self_ms_p50": layer_p50("core.islands"),
        "island.referenced_tables_us_p50": p50_of("bench.island.referenced_tables", 1e6),
        "shim.rows_materialized_per_query": (
            sum(s.attrs.get("rows", 0) for s in fetches) / shim_ops if shim_ops else 0.0),
        "shim.fetch_ms_p50": p50_of("bench.shim.fetch_relation", 1e3),
        "shim.import_ms_p50": p50_of("bench.engine.import_relation", 1e3),
        "cast.export_ms": sum(durations.get("cast.export", [])) * 1e3 / casts,
        "cast.encode_ms": sum(durations.get("cast.encode", [])) * 1e3 / casts,
        "cast.decode_ms": sum(durations.get("cast.decode", [])) * 1e3 / casts,
        "cast.import_ms": max(0.0, cast_import) * 1e3 / casts,
        "cast.bytes_per_row": sum(encoded) / cast_rows if cast_rows else 0.0,
        "cast.peak_chunk_kb": max(encoded, default=0) / 1024.0,
        "sql.parse_calls_per_op": len(durations.get("bench.sql.parse", [])) / ops,
        "sql.parse_us_p50": p50_of("bench.sql.parse", 1e6),
        "relational.execute_ms_p50": p50_of("bench.relational.execute", 1e3),
    }
    for operator in OPERATORS:
        metrics[f"relational.op_self_ms.{operator}"] = (
            instrumentation.operator_self_s.get(operator, 0.0) * 1e3 / ops)
    metrics.update({
        "relational.morsels_per_query": deltas.get("relational_morsels_executed", 0) / executes,
        "relational.partitions_spilled": float(deltas.get("relational_partitions_spilled", 0)),
        "relational.peak_build_mb": deltas.get("relational_peak_build_bytes", 0) / 2**20,
        "relational.columns_pruned": float(deltas.get("relational_columns_pruned", 0)),
        "array.execute_ms_p50": p50_of("bench.array.execute", 1e3),
        "keyvalue.search_ms_p50": p50_of("bench.keyvalue.search", 1e3),
        "streaming.append_us_p50": p50_of("bench.streaming.append", 1e6),
        "streaming.alerts": float(alerts),
        "trace.unattributed_ratio": unattributed / wall if wall else 0.0,
        "trace.overhead_ratio": (ops_per_s_traced / ops_per_s_untraced
                                 if ops_per_s_untraced else 0.0),
        "trace.wall_ms_per_op": wall * 1e3 / ops,
    })
    for layer in LAYERS + ("unattributed",):
        metrics[f"ledger.{layer}.ms_per_op"] = layer_total(layer) * 1e3 / ops
    diagnostics = {
        "ops_traced": len(op_layers),
        "unmapped_ms_per_op": layer_total("unmapped") * 1e3 / ops,
        "unmapped_span_names": sorted({s.name for s in spans
                                       if layer_of(s.name) == "unmapped"
                                       and not s.name.startswith("op.")}),
    }
    return metrics, diagnostics


#: Unit of every per-layer metric, in report order.
PER_LAYER_UNITS: dict[str, str] = {
    "runtime.self_ms_p50": "ms", "cache.hit_ratio": "ratio", "cache.lookup_us_p50": "us",
    "cache.put_refused": "count", "admission.wait_ms_p99": "ms",
    "admission.held_ms_total": "ms", "journal.intents_per_write": "ratio",
    "journal.ms_per_write": "ms", "resilience.retries": "count",
    "resilience.breaker_rejections": "count", "resilience.failovers": "count",
    "plan.ms_p50": "ms", "plan.calls_per_op": "ratio",
    "catalog.locate_calls_per_op": "ratio", "catalog.us_per_op": "us",
    "island.self_ms_p50": "ms", "island.referenced_tables_us_p50": "us",
    "shim.rows_materialized_per_query": "rows", "shim.fetch_ms_p50": "ms",
    "shim.import_ms_p50": "ms", "cast.export_ms": "ms", "cast.encode_ms": "ms",
    "cast.decode_ms": "ms", "cast.import_ms": "ms", "cast.bytes_per_row": "B",
    "cast.peak_chunk_kb": "KiB", "sql.parse_calls_per_op": "ratio",
    "sql.parse_us_p50": "us", "relational.execute_ms_p50": "ms",
    **{f"relational.op_self_ms.{op}": "ms" for op in OPERATORS},
    "relational.morsels_per_query": "ratio", "relational.partitions_spilled": "count",
    "relational.peak_build_mb": "MiB", "relational.columns_pruned": "count",
    "array.execute_ms_p50": "ms", "keyvalue.search_ms_p50": "ms",
    "streaming.append_us_p50": "us", "streaming.alerts": "count",
    "trace.unattributed_ratio": "ratio", "trace.overhead_ratio": "ratio",
    "trace.wall_ms_per_op": "ms",
    **{f"ledger.{layer}.ms_per_op": "ms" for layer in LAYERS + ("unattributed",)},
}
