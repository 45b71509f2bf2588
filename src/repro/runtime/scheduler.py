"""The polystore runtime: a worker pool serving many clients concurrently.

:class:`PolystoreRuntime` is the layer between clients and
:class:`~repro.core.bigdawg.BigDawg`.  Each submitted query flows through:

1. **Result cache** — a fingerprint-verified lookup; hits return immediately
   and never touch an engine.
2. **Planning** — scoped queries become a :class:`~repro.core.query.planner.QueryPlan`
   whose dependency sets say which steps may overlap.
3. **Scheduling** — plan steps run in dependency waves; steps in the same
   wave (independent CASTs, unrelated WITH-binding materializations) run on
   parallel threads.
4. **Admission** — before running, every step is admitted by the gates of the
   engines it touches, so no engine sees more concurrency than its slot
   budget and a slow scan on one engine cannot starve the others.
5. **Accounting** — latency lands in :class:`~repro.runtime.metrics.RuntimeMetrics`
   and in the :class:`~repro.core.monitor.ExecutionMonitor`, where the
   migration advisor mines it.

``engine_latency`` emulates the network hop to an out-of-process engine
(every engine here is in-process, which a real BigDAWG deployment is not):
each admitted dispatch sleeps that long while holding its slots.  Benchmarks
use it to study scheduling under realistic service times; it defaults to 0.
"""

from __future__ import annotations

import itertools
import re
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack
from typing import Sequence

from repro.common.cancellation import CancellationToken, cancel_scope, check_cancelled
from repro.common.errors import (
    BigDawgError,
    CatalogError,
    CircuitOpenError,
    DeadlineExceededError,
    ObjectNotFoundError,
    PlanningError,
    SimulatedCrashError,
    TransientEngineError,
)
from repro.common.schema import Relation
from repro.core.bigdawg import BigDawg
from repro.core.query.planner import BindingStep, CastStep, PlanExecution, QueryPlan
from repro.observability.profile import SlowQueryLog
from repro.observability.tracing import (
    Tracer,
    capture_context,
    get_tracer,
    tracer_scope,
    with_context,
)
from repro.runtime.admission import AdmissionController
from repro.runtime.cache import ResultCache
from repro.runtime.journal import WriteIntentJournal
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.recovery import JournalRecovery, RecoveryReport
from repro.runtime.resilience import EngineResilience

_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Statement prefixes the islands route to the primary copy (mutations).
_WRITE_PREFIXES = ("insert", "update", "delete", "drop", "create", "alter")


def _is_write_statement(text: str) -> bool:
    return text.strip().lower().startswith(_WRITE_PREFIXES)


def _span_text(query: str, limit: int = 200) -> str:
    """Query text trimmed for span attributes (traces stay bounded)."""
    text = " ".join(query.split())
    return text if len(text) <= limit else text[: limit - 3] + "..."

#: Process-wide session ids: several runtimes may serve one polystore, and
#: session-scoped temp names (``name__s<id>``) must never collide across them.
_SESSION_IDS = itertools.count(1)

#: Installed as the thread-scoped tracer for queries that lose the 1-in-N
#: sampling draw, so their whole call tree records nothing.
_UNSAMPLED_TRACER = Tracer(enabled=False)


class PolystoreRuntime:
    """Concurrent serving layer over one :class:`BigDawg` polystore."""

    def __init__(
        self,
        bigdawg: BigDawg,
        workers: int = 4,
        slots_per_engine: int = 2,
        admission_timeout: float | None = 30.0,
        engine_slots: dict[str, int] | None = None,
        cache_capacity: int = 256,
        engine_latency: float = 0.0,
        parallel_steps: bool = True,
        resilience: EngineResilience | None = None,
        serve_stale_on_open: bool = False,
        default_deadline_s: float | None = None,
        journal: WriteIntentJournal | None = None,
        recover_on_start: bool = True,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.bigdawg = bigdawg
        self.workers = workers
        self.admission = AdmissionController(
            slots_per_engine=slots_per_engine, timeout=admission_timeout, slots=engine_slots
        )
        #: Retry/backoff + per-engine circuit breakers around every dispatch.
        self.resilience = resilience if resilience is not None else EngineResilience()
        #: Serve a last-known-good cached result (flagged stale) when a
        #: breaker refuses a query — opt-in degraded reads over hard errors.
        self.serve_stale_on_open = serve_stale_on_open
        #: Applied to queries submitted without an explicit ``deadline_s``.
        self.default_deadline_s = default_deadline_s
        self.cache = ResultCache(
            bigdawg.catalog, capacity=cache_capacity, keep_stale=serve_stale_on_open
        )
        self.metrics = RuntimeMetrics()
        #: Queries slower than ``slow_queries.threshold_s`` land here (off
        #: until a threshold is set).
        self.slow_queries = SlowQueryLog()
        # Queue-wait flows from the gates into the metrics histogram, and
        # every aggregated engine counter becomes a computed gauge in the
        # registry — one uniform snapshot instead of per-counter kwargs.
        self.admission.wait_sink = self.metrics.record_queue_wait
        registry = self.metrics.registry
        self.resilience.bind_registry(registry)
        registry.counter("stale_served")
        registry.counter("failover_total")
        # Durable-write surface: the write-ahead intent journal covers DML
        # dispatches, CAST protocols and primary promotions; the migrator
        # gets the journal injected (duck-typed — core/ never imports
        # runtime/) so casts journal themselves wherever they are triggered.
        self.journal = journal if journal is not None else WriteIntentJournal()
        bigdawg.migrator.journal = self.journal
        #: The report of the most recent :meth:`recover` run, if any.
        self.last_recovery: RecoveryReport | None = None
        registry.counter("writes_failed_over")
        registry.counter("intents_replayed")
        registry.counter("recovery_rollbacks")
        registry.register_gauge(
            "intents_written", lambda: self.journal.intents_written
        )
        registry.register_gauge(
            "journal_open_intents", lambda: len(self.journal.open_intents())
        )
        # Per-engine degraded-mode accounting: which engine's outage caused
        # stale serves / failovers, surfaced as dict-valued gauges.
        self._degraded_lock = threading.Lock()
        self._stale_served_by_engine: dict[str, int] = {}
        self._failover_by_engine: dict[str, int] = {}
        registry.register_gauge(
            "stale_served_by_engine",
            lambda: dict(self._stale_served_by_engine),
        )
        registry.register_gauge(
            "failover_by_engine", lambda: dict(self._failover_by_engine)
        )
        # Replica-aware read routing avoids engines whose breaker is open:
        # the catalog asks this probe before choosing the copy to read.
        bigdawg.catalog.set_health_probe(self.resilience.engine_is_available)
        registry.register_gauge("queue_depth", self.admission.queue_depth)
        registry.register_gauge(
            "admission_wait_s_total", lambda: round(self.admission.queue_wait_seconds(), 6)
        )
        registry.register_gauge(
            "admission_held_s_total", lambda: round(self.admission.held_seconds(), 6)
        )
        registry.register_gauge(
            "relational_execution_modes", self.relational_execution_modes
        )
        registry.register_gauge(
            "relational_fallback_reasons", self.relational_fallback_reasons
        )
        registry.register_gauge("relational_columns_pruned", self.relational_columns_pruned)
        registry.register_gauge("relational_groupby_paths", self.relational_groupby_paths)
        registry.register_gauge(
            "relational_morsels_executed", self.relational_morsels_executed
        )
        registry.register_gauge(
            "relational_partitions_spilled", self.relational_partitions_spilled
        )
        registry.register_gauge(
            "relational_peak_build_bytes", self.relational_peak_build_bytes
        )
        self.engine_latency = engine_latency
        self.parallel_steps = parallel_steps
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="bigdawg-runtime"
        )
        self._closed = False
        # A journal carrying intents from a previous process run means that
        # process died (or was killed) mid-write: replay it before serving,
        # so no query can observe a half-applied write.  A fresh (empty)
        # journal makes this a no-op.
        if recover_on_start and self.journal.has_intents():
            self.recover()

    # ------------------------------------------------------------- client API
    def submit(self, query: str, cast_method: str = "binary",
               chunk_size: int | None = None, use_cache: bool = True,
               deadline_s: float | None = None) -> "Future[Relation]":
        """Enqueue one query; returns a future resolving to its Relation.

        ``deadline_s`` is a per-query wall budget: the deadline is checked
        at every plan-step boundary, bounds retry backoff, and rides a
        :class:`~repro.common.cancellation.CancellationToken` into the
        engines, where it is polled at every batch/chunk boundary — a query
        that overruns fails with
        :class:`~repro.common.errors.DeadlineExceededError` within one
        batch of the deadline instead of running arbitrarily long.
        Defaults to the runtime's ``default_deadline_s`` (None = no
        deadline).

        The returned future carries the token as ``cancellation_token``: a
        client that no longer wants the answer calls ``.cancel()`` on it
        and the in-flight query unwinds at its next batch boundary,
        cleaning up shadow/spill state on the way out.
        """
        if self._closed:
            raise RuntimeError("runtime has been shut down")
        self.metrics.record_submitted()
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        deadline = (
            self.resilience.now() + deadline_s if deadline_s is not None else None
        )
        token = CancellationToken(deadline=deadline, clock=self.resilience.now)
        # When tracing, remember the enqueue instant so the worker can emit
        # a "queued" span for the time spent waiting for a pool thread.
        queued_at = time.time() if get_tracer().enabled else None
        try:
            future = self._pool.submit(
                self._run, query, cast_method, chunk_size, use_cache, queued_at,
                deadline, token,
            )
        except RuntimeError:
            # Lost the race with a concurrent shutdown(): the pool refused
            # the work; report it the same way the _closed check would have.
            raise RuntimeError("runtime has been shut down") from None
        future.cancellation_token = token  # type: ignore[attr-defined]
        return future

    def execute(self, query: str, cast_method: str = "binary",
                chunk_size: int | None = None, use_cache: bool = True,
                deadline_s: float | None = None) -> Relation:
        """Submit and wait: the blocking single-client call."""
        return self.submit(query, cast_method, chunk_size, use_cache, deadline_s).result()

    def execute_many(self, queries: Sequence[str], cast_method: str = "binary",
                     chunk_size: int | None = None, use_cache: bool = True) -> list[Relation]:
        """Run a batch concurrently; results come back in submission order."""
        futures = [self.submit(q, cast_method, chunk_size, use_cache) for q in queries]
        return [future.result() for future in futures]

    def trace(self, query: str, cast_method: str = "binary",
              chunk_size: int | None = None,
              use_cache: bool = False) -> "tuple[Relation, Tracer]":
        """Run one query traced, without enabling tracing for anyone else.

        A fresh enabled :class:`Tracer` is installed as a *thread-scoped*
        override for just this call (concurrent traffic keeps seeing the
        process-global tracer), the query runs synchronously in the calling
        thread, and both the result and the tracer full of spans come back::

            relation, tracer = runtime.trace("SELECT ...")
            print(render_tree(tracer.spans()))

        ``use_cache`` defaults to False so the trace shows real execution
        rather than one cache-hit span.
        """
        if self._closed:
            raise RuntimeError("runtime has been shut down")
        tracer = Tracer(enabled=True)
        self.metrics.record_submitted()
        with tracer_scope(tracer):
            result = self._run(query, cast_method, chunk_size, use_cache)
        return result, tracer

    def session(self) -> "RuntimeSession":
        return RuntimeSession(self, next(_SESSION_IDS))

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting queries and wind down the worker pool.

        Contract (idempotent; callable from any thread):

        * After ``shutdown`` *starts*, every ``submit`` raises
          ``RuntimeError`` — including submits racing the shutdown, which
          the pool itself refuses.
        * ``wait=True`` (default) blocks until every already-submitted query
          finishes; their futures complete normally.
        * ``wait=False`` returns immediately: queries whose worker already
          started still run to completion, but *queued* queries are
          cancelled and their futures raise ``CancelledError``.
        """
        self._closed = True
        self._pool.shutdown(wait=wait, cancel_futures=not wait)

    def __enter__(self) -> "PolystoreRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def describe(self) -> dict:
        return {
            "workers": self.workers,
            # Every engine/admission counter is a registered metric now, so
            # the bare snapshot carries the whole surface.
            "metrics": self.metrics.snapshot(),
            "admission": self.admission.describe(),
            "cache": self.cache.describe(),
            "journal": self.journal.describe(),
            "recovery": (
                None if self.last_recovery is None else self.last_recovery.as_dict()
            ),
        }

    # --------------------------------------------------------------- recovery
    def recover(self) -> RecoveryReport:
        """Replay the write-ahead intent journal and reconcile the catalog.

        The crash-recovery entry point, run automatically at startup when
        the journal carries intents (``recover_on_start``) and callable at
        any time — it is idempotent.  Committed intents are rolled forward
        (finish the catalog swap / source drop a crash interrupted, repair
        or discard the primary a committed election demoted), incomplete
        ones rolled back (drop orphaned CAST shadows, un-promote
        half-elected primaries, abort unapplied DML — consulting the
        engines' idempotency-token memory to keep DML that *did* land),
        and the catalog is reconciled against what the engines actually
        hold.  Returns the :class:`RecoveryReport`; counters land in
        ``metrics.snapshot()`` (``intents_replayed``,
        ``recovery_rollbacks``).
        """
        tracer = get_tracer()
        with tracer.span("recovery", kind="resilience") as span:
            report = JournalRecovery(
                self.bigdawg,
                self.journal,
                health=self.resilience.engine_is_available,
            ).recover()
            span.set("replayed", report.intents_replayed)
            span.set("rolled_back", report.rolled_back)
        self.metrics.registry.counter("intents_replayed").inc(report.intents_replayed)
        self.metrics.registry.counter("recovery_rollbacks").inc(report.rolled_back)
        self.last_recovery = report
        return report

    # ------------------------------------------------- relational executor knob
    def relational_execution_modes(self) -> dict[str, int]:
        """SELECTs served per relational executor path, summed over engines."""
        counts: dict[str, int] = {}
        for engine in self.bigdawg.catalog.engines():
            modes = getattr(engine, "executions_by_mode", None)
            if modes:
                for mode, count in modes.items():
                    counts[mode] = counts.get(mode, 0) + count
        return counts

    def relational_fallback_reasons(self) -> dict[str, int]:
        """Batch-pipeline row-executor fallbacks per reason, summed over engines."""
        counts: dict[str, int] = {}
        for engine in self.bigdawg.catalog.engines():
            reasons = getattr(engine, "fallback_reasons", None)
            if reasons:
                for reason, count in reasons.items():
                    counts[reason] = counts.get(reason, 0) + count
        return counts

    def relational_columns_pruned(self) -> int:
        """Columns the optimizer pruned below joins/aggregates, engine-wide."""
        total = 0
        for engine in self.bigdawg.catalog.engines():
            total += getattr(engine, "columns_pruned", 0)
        return total

    def relational_groupby_paths(self) -> dict[str, int]:
        """Grouped aggregations per path (stream/block/row), summed over engines."""
        counts: dict[str, int] = {}
        for engine in self.bigdawg.catalog.engines():
            paths = getattr(engine, "groupby_paths", None)
            if paths:
                for path, count in paths.items():
                    counts[path] = counts.get(path, 0) + count
        return counts

    def relational_morsels_executed(self) -> int:
        """Scan morsels emitted into batch pipelines, summed over engines."""
        total = 0
        for engine in self.bigdawg.catalog.engines():
            total += getattr(engine, "morsels_executed", 0)
        return total

    def relational_partitions_spilled(self) -> int:
        """Join build partitions spilled to temp files, summed over engines."""
        total = 0
        for engine in self.bigdawg.catalog.engines():
            total += getattr(engine, "partitions_spilled", 0)
        return total

    def relational_peak_build_bytes(self) -> int:
        """Largest estimated resident join build footprint, engine-wide max."""
        peak = 0
        for engine in self.bigdawg.catalog.engines():
            peak = max(peak, getattr(engine, "peak_build_bytes", 0))
        return peak

    def set_relational_execution_mode(self, mode: str) -> None:
        """Flip every relational engine in the polystore to one executor path.

        This is the serving-layer end of the ``execution_mode`` knob: a
        benchmark (or an operator) can switch the whole deployment between
        vectorized and row execution without touching individual engines.
        """
        for engine in self.bigdawg.catalog.engines():
            if hasattr(engine, "execution_mode"):
                engine.execution_mode = mode

    # -------------------------------------------------------------- execution
    def _run(self, query: str, cast_method: str, chunk_size: int | None,
             use_cache: bool, queued_at: float | None = None,
             deadline: float | None = None,
             token: CancellationToken | None = None) -> Relation:
        tracer = get_tracer()
        if tracer.enabled and tracer.sample_every and not tracer.sample_query():
            # This query lost the 1-in-N sampling draw: install a disabled
            # tracer for the worker's whole call tree so every layer below
            # (steps, CAST chunks, operators) skips its spans too.
            with tracer_scope(_UNSAMPLED_TRACER):
                return self._run_query(
                    query, cast_method, chunk_size, use_cache, None, deadline,
                    token,
                )
        return self._run_query(
            query, cast_method, chunk_size, use_cache, queued_at, deadline, token
        )

    def _run_query(self, query: str, cast_method: str, chunk_size: int | None,
                   use_cache: bool, queued_at: float | None,
                   deadline: float | None,
                   token: CancellationToken | None = None) -> Relation:
        started = time.perf_counter()
        tracer = get_tracer()
        if token is None:
            # Direct callers (runtime.trace) skip submit(): give the query a
            # token anyway so its deadline still cancels mid-batch.
            token = CancellationToken(deadline=deadline, clock=self.resilience.now)
        with cancel_scope(token), \
                tracer.span("query", kind="lifecycle", query=_span_text(query)) as root:
            if queued_at is not None and tracer.enabled:
                tracer.record(
                    "queued", start_s=queued_at, duration_s=time.time() - queued_at,
                    parent=root, kind="lifecycle",
                )
            try:
                if use_cache:
                    hit = self.cache.get(query)
                    if hit is not None:
                        elapsed = time.perf_counter() - started
                        self.metrics.record_completed(elapsed, cached=True)
                        root.set("cached", True)
                        return hit
                fingerprint = self.cache.fingerprint()
                pre_open: set[str] = set()
                if use_cache and self.serve_stale_on_open:
                    # Breakers already open *before* this execution: a
                    # transient failure mid-query only qualifies for a stale
                    # read when the query was degraded going in, so a failure
                    # that first trips its own breaker still surfaces hard.
                    try:
                        pre_open = self.resilience.open_engines(
                            self._referenced_engines(query)
                        )
                    except BigDawgError:
                        pre_open = set()
                result, plan = self._execute_uncached(
                    query, cast_method, chunk_size, deadline
                )
                if use_cache:
                    # put() refuses the entry if any engine (including ones this
                    # very query mutated) or the catalog moved past `fingerprint`.
                    self.cache.put(query, result, fingerprint)
                elapsed = time.perf_counter() - started
                self.metrics.record_completed(elapsed, cached=False)
                if self.slow_queries.enabled:
                    self.slow_queries.observe(query, elapsed)
                self._observe(query, plan, elapsed)
                return result
            except (CircuitOpenError, TransientEngineError) as error:
                # Degraded-mode read: the live execution failed against an
                # engine whose breaker is (now) open, but a last-known-good
                # cached result may still be useful.  Covers multi-engine
                # plans — *any* required breaker being open qualifies, not
                # just the one that refused admission — and transient
                # failures that tripped a breaker mid-query.  Strictly
                # opt-in (serve_stale_on_open) and always flagged.
                if use_cache and self.serve_stale_on_open:
                    open_engines = self._open_engines_for(query, error)
                    if not isinstance(error, CircuitOpenError):
                        # Transient failures only qualify when a required
                        # breaker was open before the query started (see
                        # ``pre_open`` above).
                        open_engines &= pre_open
                    stale = self.cache.get_stale(query) if open_engines else None
                    if stale is not None:
                        self.metrics.registry.counter("stale_served").inc()
                        with self._degraded_lock:
                            for name in open_engines:
                                self._stale_served_by_engine[name] = (
                                    self._stale_served_by_engine.get(name, 0) + 1
                                )
                        elapsed = time.perf_counter() - started
                        self.metrics.record_completed(elapsed, cached=True)
                        root.set("stale", True)
                        return stale
                self.metrics.record_failed()
                raise
            except Exception:
                self.metrics.record_failed()
                raise

    def _execute_uncached(
        self, query: str, cast_method: str, chunk_size: int | None,
        deadline: float | None = None,
    ) -> tuple[Relation, QueryPlan | None]:
        stripped = query.strip()
        tracer = get_tracer()
        if self.bigdawg.is_scoped(stripped):
            with tracer.span("planned", kind="lifecycle"):
                plan = self.bigdawg.plan(
                    stripped, cast_method=cast_method, chunk_size=chunk_size
                )
            execution = self.bigdawg.planner.start(plan)
            try:
                with tracer.span("executed", kind="lifecycle", steps=len(plan.steps)):
                    self._run_plan(plan, execution, deadline)
                self.metrics.record_casts_skipped(len(execution.skipped_casts))
                return execution.finish(), plan
            finally:
                execution.cleanup()
        island = self.bigdawg._choose_island(stripped)
        members = [engine.name for engine in island.member_engines()]

        def resolve() -> set[str]:
            engines = self._referenced_engines(stripped, members)
            if not engines and members:
                engines = {members[0].lower()}
            return engines

        with tracer.span("executed", kind="lifecycle"):
            return self._dispatch_resilient(
                resolve(),
                lambda: island.execute(stripped),
                deadline=deadline,
                description="island query",
                reresolve=resolve,
                island=island,
                text=stripped,
                cast_method=cast_method,
                chunk_size=chunk_size,
            ), None

    def _run_plan(self, plan: QueryPlan, execution: PlanExecution,
                  deadline: float | None = None) -> None:
        """Run steps in dependency waves; a wave's steps run on parallel threads."""
        dependencies = plan.step_dependencies()
        completed: set[int] = set()
        remaining = set(range(len(plan.steps)))
        while remaining:
            ready = sorted(i for i in remaining if dependencies[i] <= completed)
            if not ready:
                raise PlanningError("plan dependencies contain a cycle")
            if len(ready) == 1 or not self.parallel_steps:
                for index in ready:
                    self._run_admitted_step(execution, plan, index, deadline)
            else:
                errors: list[BaseException] = []
                # Wave threads are raw Threads, not pool workers: carry the
                # query's trace context across explicitly so step spans nest
                # under the submitting query's "executed" span.
                ctx = capture_context()

                def run(index: int) -> None:
                    try:
                        with_context(
                            ctx, self._run_admitted_step, execution, plan, index,
                            deadline,
                        )
                    except BaseException as exc:  # noqa: BLE001 - re-raised below
                        errors.append(exc)

                threads = [
                    threading.Thread(target=run, args=(index,), daemon=True)
                    for index in ready
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                if errors:
                    raise errors[0]
            completed.update(ready)
            remaining.difference_update(ready)

    def _run_admitted_step(self, execution: PlanExecution, plan: QueryPlan,
                           index: int, deadline: float | None = None) -> None:
        step = plan.steps[index]
        engines = self._step_engines(step)
        tracer = get_tracer()
        scope = getattr(step, "scope", None)
        island = self.bigdawg.island(scope.island) if scope is not None else None
        text = scope.body_without_casts if scope is not None else None
        with tracer.span("plan_step", kind="step", step=step.describe()):
            # The whole admit-and-dispatch is the retryable unit: a retried
            # attempt re-queues at the admission gates (fairness under load)
            # and the breakers are checked *before* admission, so traffic to
            # a tripped engine fails fast instead of holding queue slots.
            self._dispatch_resilient(
                engines,
                lambda: execution.run_step(index),
                deadline=deadline,
                description=step.describe(),
                reresolve=lambda: self._step_engines(step),
                island=island,
                text=text,
                cast_method=getattr(step, "method", "binary"),
                chunk_size=getattr(step, "chunk_size", None),
            )

    def _dispatch_resilient(self, engines: set[str], call, deadline: float | None,
                            description: str, reresolve=None, island=None,
                            text: str | None = None, cast_method: str = "binary",
                            chunk_size: int | None = None):
        """Dispatch under retry/breakers/failover, journaling mutations.

        Statements the islands route to a primary copy (DML/DDL) are
        wrapped in a write-ahead intent: the begin record lands before the
        dispatch, the intent's idempotency token is stamped onto the engines
        once the write applies, and the commit record seals it — so crash
        recovery can always classify an interrupted write as applied (roll
        forward) or not (roll back).  Reads skip the journal entirely.
        """
        if text is None or not _is_write_statement(text):
            return self._dispatch_with_failover(
                engines, call, deadline, description, reresolve, island,
                text, cast_method, chunk_size,
            )
        intent = self.journal.begin(
            "dml",
            query=_span_text(text),
            engines=sorted(engines),
            tables=self._catalog_tables(text),
        )
        self.journal.crash_point("dml.begin")
        try:
            result = self._dispatch_with_failover(
                engines, call, deadline, description, reresolve, island,
                text, cast_method, chunk_size, write_token=intent.token,
            )
        except BaseException as error:
            if not isinstance(error, SimulatedCrashError):
                intent.abort(error=type(error).__name__)
            raise
        self.journal.crash_point("dml.dispatched")
        intent.mark("applied")
        self.journal.crash_point("dml.applied")
        intent.commit()
        self.journal.crash_point("dml.committed")
        return result

    def _dispatch_with_failover(self, engines: set[str], call,
                                deadline: float | None, description: str,
                                reresolve=None, island=None,
                                text: str | None = None,
                                cast_method: str = "binary",
                                chunk_size: int | None = None,
                                write_token: str | None = None):
        """Dispatch under retry/breakers; on an open breaker, fail over.

        When the protected dispatch fails against an engine whose breaker is
        (now) open, the step is *re-planned* instead of surfacing the error.
        For reads, engine resolution runs again — with the breaker open, the
        catalog's replica-aware routing now picks a healthy fresh copy —
        and, if plain rerouting finds nothing, a fresh healthy replica from
        outside the island is CAST into a healthy member first.  For writes,
        rerouting alone cannot help (only the primary accepts writes), so a
        fresh healthy replica is *promoted* to primary first — a journaled
        election under a ``failover.write`` span — and the write re-routes
        to the new primary.  Only when the rerouted engine set is actually
        clear of open breakers is the step re-dispatched, with its retry
        attempts budgeted out of whatever deadline remains, so a failover
        can never overshoot the query's budget.
        """
        try:
            return self.resilience.run(
                engines,
                lambda: self._admitted_dispatch(engines, call, write_token),
                deadline=deadline,
                description=description,
            )
        except (CircuitOpenError, TransientEngineError) as error:
            broken = self._open_engines_for_dispatch(engines, error)
            if not broken or reresolve is None:
                raise
            failover_attempts: int | None = None
            if deadline is not None:
                # Deadline-aware failover budgeting: the failed primary
                # already spent part of the query's budget, so the
                # re-dispatch gets only as many attempts (with worst-case
                # backoff) as still fit before the deadline.
                remaining = deadline - self.resilience.now()
                if remaining <= 0:
                    raise DeadlineExceededError(
                        f"query deadline exhausted before failover of "
                        f"{description or 'step'}"
                    ) from error
                failover_attempts = self.resilience.retry.attempts_within(remaining)
            is_write = text is not None and _is_write_statement(text)
            elected = False
            if is_write and island is not None:
                elected = self._elect_write_primaries(text, broken, description)
                if not elected:
                    raise
            rerouted = set(reresolve())
            if not is_write and (rerouted == engines or rerouted & broken) \
                    and island is not None and text is not None:
                if self._provision_replicas(text, island, cast_method, chunk_size):
                    rerouted = set(reresolve())
            if not rerouted or rerouted == engines or rerouted & broken:
                raise
            self.metrics.registry.counter("failover_total").inc()
            if elected:
                self.metrics.registry.counter("writes_failed_over").inc()
            with self._degraded_lock:
                for name in sorted(broken):
                    self._failover_by_engine[name] = (
                        self._failover_by_engine.get(name, 0) + 1
                    )
            tracer = get_tracer()
            with tracer.span(
                "failover.write" if elected else "failover",
                kind="resilience", step=description,
                from_engines=",".join(sorted(broken)),
                to_engines=",".join(sorted(rerouted)),
                error=type(error).__name__,
                budget_attempts=failover_attempts or 0,
            ):
                return self.resilience.run(
                    rerouted,
                    lambda: self._admitted_dispatch(rerouted, call, write_token),
                    deadline=deadline,
                    description=f"failover: {description}",
                    max_attempts=failover_attempts,
                )

    def _elect_write_primaries(self, text: str, broken: set[str],
                               description: str) -> bool:
        """Promote fresh healthy replicas to primary for a failed write.

        For every catalog object the statement mentions whose primary sits
        on a broken engine, a *fresh* (current-content) replica on a healthy
        engine is promoted via :meth:`BigDawgCatalog.promote_primary`.  Each
        election is journaled as a ``promotion`` intent — begin before the
        catalog swap, commit after — so a crash mid-election is either
        rolled back (un-promote) or, once committed, finished by recovery:
        the demoted copy is repaired with an anti-entropy CAST or discarded.
        Returns True when at least one primary moved.
        """
        catalog = self.bigdawg.catalog
        elected = False
        for name in sorted(set(_IDENTIFIER_RE.findall(text))):
            check_cancelled()  # client cancellation lands between elections
            try:
                primary = catalog.locate(name)
            except ObjectNotFoundError:
                continue
            if primary.engine_name not in broken:
                continue
            candidates = [
                loc for loc in catalog.fresh_locations(name)
                if loc.engine_name != primary.engine_name
                and self.resilience.engine_is_available(loc.engine_name)
            ]
            if not candidates:
                continue
            target = candidates[0].engine_name
            intent = self.journal.begin(
                "promotion",
                object=primary.name,
                from_engine=primary.engine_name,
                to_engine=target,
                step=description,
            )
            self.journal.crash_point("promotion.begin")
            try:
                catalog.promote_primary(name, target)
            except CatalogError as error:
                # Lost a race (another thread promoted first, or the copy
                # went stale between the check and the swap): record the
                # abort and move on — reresolve() will see whatever primary
                # won.
                intent.abort(error=type(error).__name__)
                continue
            intent.mark("catalog")
            self.journal.crash_point("promotion.catalog")
            intent.commit()
            self.journal.crash_point("promotion.committed")
            elected = True
        return elected

    def _catalog_tables(self, text: str) -> list[str]:
        """Catalog objects a statement mentions (for the journal record)."""
        names = []
        for token in sorted(set(_IDENTIFIER_RE.findall(text))):
            try:
                names.append(self.bigdawg.catalog.locate(token).name)
            except ObjectNotFoundError:
                continue
        return names

    def _open_engines_for_dispatch(self, engines: set[str],
                                   error: BaseException) -> set[str]:
        """Engines in this dispatch whose breaker is open, plus the refuser."""
        broken = self.resilience.open_engines(engines)
        name = getattr(error, "engine", None)
        if name and not self.resilience.engine_is_available(name):
            broken.add(name.lower())
        return broken

    def _open_engines_for(self, query: str, error: BaseException) -> set[str]:
        """Open-breaker engines the *query* needs (the stale-serve test)."""
        return self._open_engines_for_dispatch(
            self._referenced_engines(query), error
        )

    def _provision_replicas(self, text: str, island, cast_method: str,
                            chunk_size: int | None) -> bool:
        """CAST stranded objects' fresh healthy replicas into the island.

        For each object the step reads whose every in-island copy is
        unhealthy but which has a fresh healthy copy *outside* the island,
        copy that replica onto a healthy island member — the alternate-CAST
        failover path.  Returns True when at least one object moved.
        """
        members = [engine.name.lower() for engine in island.member_engines()]
        healthy_members = [
            name for name in members if self.resilience.engine_is_available(name)
        ]
        if not healthy_members:
            return False
        catalog = self.bigdawg.catalog
        moved = False
        for token in sorted(set(_IDENTIFIER_RE.findall(text))):
            try:
                primary = catalog.locate(token)
            except ObjectNotFoundError:
                continue
            fresh = catalog.fresh_locations(token)
            healthy = [
                loc for loc in fresh
                if self.resilience.engine_is_available(loc.engine_name)
            ]
            if not healthy or any(loc.engine_name in healthy_members for loc in healthy):
                continue  # nothing to copy from, or already readable in-island
            source = healthy[0].engine_name
            try:
                self.bigdawg.migrator.cast(
                    token, healthy_members[0], method=cast_method,
                    chunk_size=chunk_size,
                    source_engine=None if source == primary.engine_name else source,
                )
            except BigDawgError:
                continue  # best effort; the re-raise path reports the original
            moved = True
        return moved

    def _admitted_dispatch(self, engines: set[str], fn,
                           write_token: str | None = None):
        """Admit at the engines' gates, then dispatch one attempt of ``fn``.

        For journaled writes, the intent's idempotency token is stamped onto
        the touched engines *after* the dispatch succeeds — recovery uses
        the token to tell an applied-but-uncommitted write (roll forward)
        from one that never reached an engine (roll back).
        """
        tracer = get_tracer()
        with ExitStack() as stack:
            with tracer.span("admitted", kind="lifecycle",
                             engines=",".join(sorted(engines))):
                stack.enter_context(self.admission.admit(engines))
            self._dispatch_delay()
            result = fn()
            if write_token is not None:
                for name in engines:
                    try:
                        self.bigdawg.catalog.engine(name).note_write_token(write_token)
                    except ObjectNotFoundError:  # pragma: no cover - defensive
                        pass
            return result

    def _dispatch_delay(self) -> None:
        if self.engine_latency > 0:
            time.sleep(self.engine_latency)

    # ------------------------------------------------------- engine discovery
    def _step_engines(self, step: object) -> set[str]:
        """The engines a plan step will touch, for admission control."""
        catalog = self.bigdawg.catalog
        if isinstance(step, CastStep):
            engines = {step.target_engine.lower()}
            if step.source_engine is not None:
                engines.add(step.source_engine.lower())
            else:
                try:
                    engines.add(catalog.locate(step.object_name).engine_name)
                except ObjectNotFoundError:
                    pass
            return engines
        scope = getattr(step, "scope", None)
        if scope is None:  # pragma: no cover - defensive
            return set()
        members = [
            engine.name
            for engine in self.bigdawg.island(scope.island).member_engines()
        ]
        engines = self._referenced_engines(scope.body_without_casts, members)
        if isinstance(step, BindingStep):
            # The materialization writes into the temp engine: admit there
            # too, so binding writes stay inside that engine's slot budget.
            engines.add(self.bigdawg.temp_engine().name.lower())
        return engines

    def _referenced_engines(self, text: str,
                            members: Sequence[str] | None = None) -> set[str]:
        """Engines serving reads of any catalog object the text mentions.

        Uses the catalog's replica-aware read routing (restricted to the
        island's ``members`` when given), so admission slots and breaker
        claims are taken against the copies the islands will actually read —
        not a primary that routing is steering around.
        """
        catalog = self.bigdawg.catalog
        # Write statements are routed to the primary by the islands; claim
        # the same copy here so admission matches the actual dispatch.
        is_write = _is_write_statement(text)
        engines: set[str] = set()
        for token in set(_IDENTIFIER_RE.findall(text)):
            try:
                if is_write:
                    engines.add(catalog.locate(token).engine_name)
                else:
                    engines.add(
                        catalog.locate_for_read(token, members=members).engine_name
                    )
            except ObjectNotFoundError:
                continue
        return engines

    # -------------------------------------------------------------- monitoring
    def _observe(self, query: str, plan: QueryPlan | None, elapsed: float) -> None:
        """Feed the execution monitor so the advisor learns from live traffic."""
        try:
            if plan is not None and plan.steps:
                final = plan.steps[-1]
                scope = getattr(final, "scope", None)
                island = scope.island if scope is not None else "auto"
                body = scope.body_without_casts if scope is not None else query
            else:
                island, body = "auto", query
            catalog = self.bigdawg.catalog
            for token in _IDENTIFIER_RE.findall(body):
                try:
                    location = catalog.locate(token)
                except ObjectNotFoundError:
                    continue
                self.bigdawg.monitor.record(
                    f"runtime_{island}", location.name, location.engine_name, elapsed
                )
                return
        except BigDawgError:  # pragma: no cover - observation must never fail a query
            pass


class RuntimeSession:
    """A per-client handle: counts its traffic and scopes its temporaries.

    Any temporary materialized through :meth:`materialize` lives until the
    session closes (use it as a context manager), at which point it is
    dropped from both its engine and the catalog — per-query WITH bindings
    are already scoped to their plan execution and need no session help.
    """

    def __init__(self, runtime: PolystoreRuntime, session_id: int) -> None:
        self.runtime = runtime
        self.id = session_id
        self.queries_submitted = 0
        self._temporaries: list[str] = []
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ query
    def submit(self, query: str, **options: object) -> "Future[Relation]":
        self._check_open()
        with self._lock:
            self.queries_submitted += 1
        return self.runtime.submit(query, **options)  # type: ignore[arg-type]

    def execute(self, query: str, **options: object) -> Relation:
        return self.submit(query, **options).result()

    # ------------------------------------------------------------- temporaries
    def materialize(self, name: str, relation: Relation) -> str:
        """Store a relation as a session-scoped temporary table."""
        self._check_open()
        physical = f"{name}__s{self.id}"
        self.runtime.bigdawg.materialize_temporary(physical, relation)
        with self._lock:
            self._temporaries.append(physical)
        return physical

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with self._lock:
            temporaries, self._temporaries = self._temporaries, []
        for name in temporaries:
            self.runtime.bigdawg.drop_temporary(name)

    def __enter__(self) -> "RuntimeSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"session {self.id} is closed")


__all__ = ["PolystoreRuntime", "RuntimeSession"]
