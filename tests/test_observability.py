"""Tests for the observability subsystem: tracing (context propagation across
the runtime's thread pools), the typed metric registry, queue-wait accounting,
windowed throughput, per-operator profiling / EXPLAIN ANALYZE, the slow-query
log, and the trace exporters."""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.common.serialization import BinaryCodec
from repro.core.bigdawg import BigDawg
from repro.engines.array import ArrayEngine
from repro.engines.keyvalue import KeyValueEngine
from repro.engines.relational import RelationalEngine
from repro.observability import (
    NULL_SPAN,
    MetricRegistry,
    SlowQueryLog,
    Tracer,
    capture_context,
    current_span,
    get_tracer,
    render_tree,
    set_tracer,
    to_chrome_trace,
    to_otlp,
    with_context,
    write_chrome_trace,
    write_otlp,
)
from repro.runtime import AdmissionController, PolystoreRuntime, RuntimeMetrics


@pytest.fixture()
def traced():
    """Install a fresh enabled tracer for the test; restore the old one."""
    tracer = Tracer(enabled=True)
    previous = set_tracer(tracer)
    yield tracer
    set_tracer(previous)


@pytest.fixture()
def bigdawg() -> BigDawg:
    bd = BigDawg()
    postgres = RelationalEngine("postgres")
    scidb = ArrayEngine("scidb")
    accumulo = KeyValueEngine("accumulo")
    bd.add_engine(postgres, islands=["relational"])
    bd.add_engine(scidb, islands=["array"])
    bd.add_engine(accumulo, islands=["text"])
    postgres.execute("CREATE TABLE patients (id INTEGER PRIMARY KEY, age INTEGER)")
    postgres.execute("INSERT INTO patients VALUES (1, 64), (2, 70), (3, 41), (4, 77)")
    scidb.load_numpy("wave_copy", np.arange(6, dtype=float).reshape(2, 3))
    return bd


def sql_engine(mode: str = "vectorized", rows: int = 400) -> RelationalEngine:
    engine = RelationalEngine("pg", execution_mode=mode)
    engine.execute(
        "CREATE TABLE fact (id INTEGER PRIMARY KEY, grp INTEGER, value FLOAT)"
    )
    engine.insert_rows(
        "fact", [(i, i % 10, float(i % 37)) for i in range(rows)]
    )
    engine.execute("CREATE TABLE dims (grp INTEGER PRIMARY KEY, label TEXT)")
    engine.insert_rows("dims", [(g, f"seg_{g % 3}") for g in range(10)])
    return engine


JOIN_SQL = (
    "SELECT d.label, count(*) AS n, sum(f.value) AS s FROM fact f "
    "JOIN dims d ON f.grp = d.grp GROUP BY d.label ORDER BY d.label"
)


# ------------------------------------------------------------------- tracer
class TestTracer:
    def test_disabled_tracer_returns_null_span_and_collects_nothing(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", kind="test", big=list(range(3)))
        assert span is NULL_SPAN  # identity: zero allocation on the hot path
        with span:
            span.set("k", "v")
        assert tracer.record("x", start_s=0.0, duration_s=1.0) is NULL_SPAN
        assert len(tracer) == 0

    def test_spans_nest_and_share_a_trace(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root", kind="lifecycle") as root:
            with tracer.span("child") as child:
                assert current_span() is child
            assert current_span() is root
        assert current_span() is None
        spans = {s.name: s for s in tracer.spans()}
        assert spans["child"].parent_id == spans["root"].span_id
        assert spans["child"].trace_id == spans["root"].trace_id
        assert spans["root"].parent_id is None

    def test_exception_is_recorded_and_context_restored(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        assert current_span() is None
        (span,) = tracer.spans("boom")
        assert span.attrs["error"] == "ValueError"

    def test_buffer_is_bounded(self):
        tracer = Tracer(enabled=True, max_spans=2)
        for i in range(4):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer) == 2
        assert tracer.dropped == 2

    def test_with_context_installs_and_restores(self):
        tracer = Tracer(enabled=True)
        with tracer.span("parent") as parent:
            ctx = capture_context()
        # The captured context carries (span, tracer override, cancel token).
        assert ctx == (parent, None, None)

        seen: list[object] = []

        def task() -> None:
            seen.append(current_span())

        with_context(ctx, task)
        assert seen == [parent]
        assert current_span() is None
        # ctx=None runs the function directly.
        with_context(None, task)
        assert seen[-1] is None


class TestContextPropagation:
    def test_morsel_probe_spans_attach_to_the_query_trace(self, traced):
        engine = sql_engine()
        with traced.span("query", kind="lifecycle") as root:
            engine.execute(JOIN_SQL)
        probes = traced.spans("join.probe_morsel")
        assert probes, "the probe emitted no morsel spans"
        assert all(s.trace_id == root.trace_id for s in probes)
        # Operator spans ride along on the same trace.
        assert any(s.name.startswith("op.") for s in traced.spans())

    def test_spill_join_emits_leaf_spans(self, traced):
        engine = sql_engine()
        engine.join_memory_budget = 256
        with traced.span("query", kind="lifecycle") as root:
            engine.execute(JOIN_SQL)
        leaves = traced.spans("join.spill_leaf")
        assert leaves, "the budgeted join never hit the spill path"
        assert all(s.trace_id == root.trace_id for s in leaves)
        assert engine.partitions_spilled > 0


class TestTracedResultsIdentical:
    @pytest.mark.parametrize("scenario", ["plain", "spill"])
    def test_tracing_never_changes_results(self, scenario):
        def build() -> RelationalEngine:
            engine = sql_engine()
            if scenario == "spill":
                engine.join_memory_budget = 256
            return engine

        codec = BinaryCodec()
        baseline = codec.encode(build().execute(JOIN_SQL))
        tracer = Tracer(enabled=True)
        previous = set_tracer(tracer)
        try:
            traced_bytes = codec.encode(build().execute(JOIN_SQL))
        finally:
            set_tracer(previous)
        assert traced_bytes == baseline
        assert len(tracer) > 0


# ----------------------------------------------------------------- runtime
class TestRuntimeTracing:
    def test_query_lifecycle_spans(self, traced, bigdawg):
        runtime = PolystoreRuntime(bigdawg, workers=2)
        try:
            runtime.execute("RELATIONAL(SELECT count(*) AS n FROM patients)",
                            use_cache=False)
        finally:
            runtime.shutdown()
        names = traced.span_names()
        assert {"query", "queued", "planned", "executed", "admitted",
                "plan_step"} <= names
        (root,) = traced.spans("query")
        assert root.parent_id is None
        # Everything the query did shares its trace, including the plan step
        # executed on a scheduler pool thread.
        (step,) = traced.spans("plan_step")
        assert step.trace_id == root.trace_id
        (executed,) = traced.spans("executed")
        assert executed.parent_id == root.span_id

    def test_cast_stages_are_traced(self, traced, bigdawg):
        runtime = PolystoreRuntime(bigdawg, workers=2)
        try:
            runtime.execute(
                "RELATIONAL(SELECT count(*) AS n FROM CAST(wave_copy, relational) "
                "WHERE value >= 0)",
                use_cache=False,
            )
        finally:
            runtime.shutdown()
        names = traced.span_names()
        assert {"cast", "cast.export", "cast.encode", "cast.decode",
                "cast.import"} <= names
        (root,) = traced.spans("query")
        (cast_span,) = traced.spans("cast")
        assert cast_span.trace_id == root.trace_id
        encode = traced.spans("cast.encode")
        assert encode and all(s.attrs.get("bytes", 0) > 0 for s in encode)

    def test_cache_hit_marks_root_span(self, traced, bigdawg):
        runtime = PolystoreRuntime(bigdawg, workers=2)
        try:
            query = "RELATIONAL(SELECT count(*) AS n FROM patients)"
            runtime.execute(query)
            runtime.execute(query)
        finally:
            runtime.shutdown()
        roots = traced.spans("query")
        assert len(roots) == 2
        assert [bool(s.attrs.get("cached")) for s in roots].count(True) == 1

    def test_disabled_tracer_collects_nothing_through_the_runtime(self, bigdawg):
        tracer = get_tracer()
        assert not tracer.enabled
        before = len(tracer)
        runtime = PolystoreRuntime(bigdawg, workers=2)
        try:
            runtime.execute("RELATIONAL(SELECT count(*) AS n FROM patients)")
        finally:
            runtime.shutdown()
        assert len(tracer) == before


# ---------------------------------------------------------------- registry
class TestMetricRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(2)
        registry.gauge("depth").set(7)
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.histogram("lat").observe(value)
        snap = registry.snapshot()
        assert snap["hits"] == 3
        assert snap["depth"] == 7
        assert snap["lat_count"] == 4
        assert snap["lat_total"] == pytest.approx(10.0)
        assert snap["lat_mean"] == pytest.approx(2.5)
        assert snap["lat_max"] == pytest.approx(4.0)
        assert snap["lat_p50"] == pytest.approx(2.5)

    def test_computed_gauge(self):
        registry = MetricRegistry()
        registry.register_gauge("answer", lambda: 42)
        assert registry.snapshot()["answer"] == 42

    def test_type_conflicts_are_rejected(self):
        registry = MetricRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_gauge_set_max(self):
        registry = MetricRegistry()
        gauge = registry.gauge("peak")
        gauge.set_max(5)
        gauge.set_max(3)
        assert gauge.value == 5


# ------------------------------------------------- queue wait & throughput
class TestQueueWaitAndThroughput:
    def test_gate_separates_wait_from_hold(self):
        waits: list[float] = []
        controller = AdmissionController(slots_per_engine=1, timeout=5.0)
        controller.wait_sink = waits.append
        entered = threading.Event()
        release = threading.Event()

        def holder() -> None:
            with controller.admit(["pg"]):
                entered.set()
                release.wait(5.0)

        thread = threading.Thread(target=holder)
        thread.start()
        assert entered.wait(5.0)
        time.sleep(0.05)  # let the next admit genuinely queue
        start = time.monotonic()
        waiter_done = threading.Event()

        def waiter() -> None:
            with controller.admit(["pg"]):
                waiter_done.set()

        wthread = threading.Thread(target=waiter)
        wthread.start()
        time.sleep(0.05)
        release.set()
        assert waiter_done.wait(5.0)
        thread.join(5.0)
        wthread.join(5.0)
        assert time.monotonic() - start >= 0.04
        # Both admissions report their wait; the blocked one dominates.
        assert len(waits) == 2 and max(waits) >= 0.04
        gate = controller.describe()["pg"]
        assert gate["wait_seconds_total"] >= 0.04
        assert gate["held_seconds_total"] > 0

    def test_queue_wait_lands_in_the_runtime_snapshot(self, bigdawg):
        runtime = PolystoreRuntime(bigdawg, workers=2)
        try:
            runtime.execute("RELATIONAL(SELECT count(*) AS n FROM patients)",
                            use_cache=False)
            snap = runtime.metrics.snapshot()
        finally:
            runtime.shutdown()
        assert snap["queue_wait_s_count"] >= 1
        assert "admission_wait_s_total" in snap
        assert "admission_held_s_total" in snap
        assert snap["queue_depth"] == 0

    def test_windowed_throughput_resets(self):
        metrics = RuntimeMetrics()
        for _ in range(5):
            metrics.record_completed(0.001)
        recent = metrics.windowed_throughput(window_seconds=30.0)
        assert recent > 0
        snap = metrics.snapshot()
        assert snap["throughput_recent_qps"] > 0
        metrics.reset_window()
        assert metrics.windowed_throughput(window_seconds=30.0) == 0.0
        # Lifetime throughput is untouched by a window reset.
        assert metrics.snapshot()["completed"] == 5

    def test_snapshot_queue_depth_override(self):
        metrics = RuntimeMetrics()
        assert metrics.snapshot(queue_depth=9)["queue_depth"] == 9


# ---------------------------------------------------------- explain analyze
class TestExplainAnalyze:
    def test_vectorized_operators_report_estimates_and_actuals(self):
        engine = sql_engine()
        text = engine.explain(JOIN_SQL, analyze=True)
        lines = text.splitlines()
        operator_lines = [
            line for line in lines
            if line and not line.startswith(("ExecutionMode", "Stats", "Parallel", "Total"))
        ]
        assert operator_lines
        for line in operator_lines:
            assert "estimated=" in line and "actual=" in line, line
        assert any("[vectorized]" in line for line in operator_lines)
        assert any("batches=" in line for line in operator_lines)
        assert "Total(rows=" in text and "time=" in text

    def test_actual_rows_match_execution(self):
        engine = sql_engine()
        sql = "SELECT grp, count(*) AS n FROM fact GROUP BY grp ORDER BY grp"
        expected = len(engine.execute(sql).rows)
        text = engine.explain(sql, analyze=True)
        assert f"Total(rows={expected}," in text
        top_operator = text.splitlines()[3]  # header is 3 lines for this engine
        assert f"actual={expected} rows" in top_operator

    def test_row_mode_reports_actuals(self):
        engine = sql_engine(mode="row")
        text = engine.explain(JOIN_SQL, analyze=True)
        assert text.startswith("ExecutionMode(row)")
        assert "actual=" in text and "Total(rows=" in text

    def test_spill_join_reports_actuals(self):
        engine = sql_engine()
        # Below the build side's *estimated* bytes too, so the plan is
        # tagged [spill] up front and the execution actually spills.
        engine.join_memory_budget = 128
        text = engine.explain(JOIN_SQL, analyze=True)
        join_line = next(line for line in text.splitlines() if "Join" in line)
        assert "[spill]" in join_line and "actual=" in join_line
        assert engine.partitions_spilled > 0

    def test_plain_explain_is_unchanged(self):
        engine = sql_engine()
        before = engine.queries_executed
        text = engine.explain(JOIN_SQL)
        assert text.startswith("ExecutionMode(vectorized)")
        assert "[vectorized]" in text
        assert "actual=" not in text and "Total(" not in text
        # analyze=False must not execute the query.
        assert engine.queries_executed == before

    def test_analyze_results_stay_correct_and_counted(self):
        engine = sql_engine()
        before = engine.queries_executed
        engine.explain(JOIN_SQL, analyze=True)
        assert engine.queries_executed == before + 1
        # The profiler uninstalls afterwards: a plain run stays unprofiled.
        assert engine._batch_executor.profiler is None
        assert engine._executor.profiler is None


# ------------------------------------------------------------- slow queries
class TestSlowQueryLog:
    def test_disabled_by_default(self):
        log = SlowQueryLog()
        assert not log.enabled
        assert not log.observe("SELECT 1", 100.0)
        assert len(log) == 0

    def test_engine_logs_slow_selects(self):
        engine = sql_engine()
        engine.slow_queries.threshold_s = 0.0
        engine.execute("SELECT count(*) AS n FROM fact")
        entries = engine.slow_queries.entries()
        assert entries and "count(*)" in entries[0].query
        assert entries[0].attrs["mode"] == "vectorized"

    def test_runtime_logs_slow_queries(self, bigdawg):
        runtime = PolystoreRuntime(bigdawg, workers=2)
        runtime.slow_queries.threshold_s = 0.0
        try:
            runtime.execute("RELATIONAL(SELECT count(*) AS n FROM patients)",
                            use_cache=False)
        finally:
            runtime.shutdown()
        assert len(runtime.slow_queries) == 1

    def test_capacity_is_bounded(self):
        log = SlowQueryLog(threshold_s=0.0, capacity=3)
        for i in range(10):
            log.observe(f"q{i}", 1.0)
        assert len(log) == 3
        assert [e.query for e in log.entries()] == ["q7", "q8", "q9"]


# ----------------------------------------------------------------- exporters
class TestExport:
    def _traced_run(self) -> Tracer:
        tracer = Tracer(enabled=True)
        with tracer.span("query", kind="lifecycle", query="SELECT 1"):
            with tracer.span("executed", kind="lifecycle"):
                pass
        return tracer

    def test_chrome_trace_shape(self):
        tracer = self._traced_run()
        events = to_chrome_trace(tracer.spans())
        complete = [e for e in events if e["ph"] == "X"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 2
        assert metadata and metadata[0]["name"] == "thread_name"
        names = {e["name"] for e in complete}
        assert names == {"query", "executed"}
        for event in complete:
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert "span_id" in event["args"]

    def test_write_chrome_trace_roundtrips(self, tmp_path):
        tracer = self._traced_run()
        target = tmp_path / "trace.json"
        count = write_chrome_trace(target, tracer.spans())
        assert count >= 2  # two complete events plus thread metadata rows
        loaded = json.loads(target.read_text())
        assert any(e["name"] == "query" for e in loaded)

    def test_otlp_shape(self):
        tracer = self._traced_run()
        payload = to_otlp(tracer.spans(), service_name="unit-test")
        (resource,) = payload["resourceSpans"]
        (attr,) = resource["resource"]["attributes"]
        assert attr == {"key": "service.name", "value": {"stringValue": "unit-test"}}
        (scope,) = resource["scopeSpans"]
        spans = scope["spans"]
        assert [s["name"] for s in spans] == ["query", "executed"]
        parent, child = spans
        # Hex ids: 32-char traceId shared, 16-char spanId, child links parent.
        assert parent["traceId"] == child["traceId"]
        assert len(parent["traceId"]) == 32
        assert len(parent["spanId"]) == 16
        assert parent["parentSpanId"] == ""
        assert child["parentSpanId"] == parent["spanId"]
        for span in spans:
            assert span["kind"] == 1  # SPAN_KIND_INTERNAL
            # int64 nanos are strings in the OTLP JSON mapping.
            assert int(span["endTimeUnixNano"]) >= int(span["startTimeUnixNano"])
        keys = {a["key"]: a["value"] for a in parent["attributes"]}
        assert keys["span.kind"] == {"stringValue": "lifecycle"}
        assert keys["query"] == {"stringValue": "SELECT 1"}
        assert "thread.name" in keys

    def test_otlp_types_attribute_values(self):
        tracer = Tracer(enabled=True)
        with tracer.span("s", kind="step", count=3, ratio=0.5, ok=True, label="x"):
            pass
        payload = to_otlp(tracer.spans())
        (span,) = payload["resourceSpans"][0]["scopeSpans"][0]["spans"]
        values = {a["key"]: a["value"] for a in span["attributes"]}
        assert values["count"] == {"intValue": "3"}
        assert values["ratio"] == {"doubleValue": 0.5}
        assert values["ok"] == {"boolValue": True}
        assert values["label"] == {"stringValue": "x"}

    def test_write_otlp_roundtrips(self, tmp_path):
        tracer = self._traced_run()
        target = tmp_path / "otlp.json"
        count = write_otlp(target, tracer.spans())
        assert count == 2
        loaded = json.loads(target.read_text())
        names = [
            s["name"]
            for s in loaded["resourceSpans"][0]["scopeSpans"][0]["spans"]
        ]
        assert names == ["query", "executed"]

    def test_render_tree_indents_children(self):
        tracer = self._traced_run()
        text = render_tree(tracer.spans())
        lines = text.splitlines()
        query_line = next(l for l in lines if "query" in l)
        child_line = next(l for l in lines if "executed" in l)
        indent = len(child_line) - len(child_line.lstrip())
        assert indent > len(query_line) - len(query_line.lstrip())
        assert "ms" in child_line
