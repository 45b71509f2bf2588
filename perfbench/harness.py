"""Shared plumbing: dataset sizing, deployment set-up, timing windows, statistics.

Nothing here knows about a particular workload.  A workload object (see
``workloads.py``) supplies the operations; this module builds the polystore
the way a user would (``build_polystore`` plus a ``PolystoreRuntime`` with
``workers=2`` and every other knob at its default) and measures it.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.common.parallel import resolve_parallelism
from repro.mimic import build_polystore
from repro.mimic.loader import MimicDeployment
from repro.observability.tracing import Tracer, tracer_scope
from repro.runtime.scheduler import PolystoreRuntime

#: The runtime configuration every workload runs against.
RUNTIME_WORKERS = 2

WRONG_RESULT = "wrong result"

#: Set-ups per run; ``setup_s`` is their median and only the last one is measured.
SETUP_REPEATS = 3


@dataclass
class OpRecord:
    """One completed client operation.

    ``kind`` groups operations for the per-kind report (``read``, ``write``,
    ``query``, ``cast``, ``ingest``).  ``units`` (rows cast, tuples ingested)
    took ``units_s`` of the latency.
    """

    kind: str
    latency_s: float
    #: Why the operation failed: the exception's type or ``WRONG_RESULT``.
    error: str | None = None
    units: int = 0
    units_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


class Window:
    """A measuring window that can pause while the client checks results.

    Single-client workloads verify some results between operations; that
    time is neither operation latency nor part of the window, so throughput
    is operations per *active* second.  ``label`` names the window; clients
    draw their operations from a stream derived from it, so two windows of
    one run never replay the same operations.
    """

    def __init__(self, seconds: float, label: str = "timed") -> None:
        self.seconds = seconds
        self.label = label
        self._lock = threading.Lock()
        self._paused = 0.0
        self.started = time.perf_counter()
        self.ended: float | None = None

    @contextmanager
    def paused(self) -> Iterator[None]:
        began = time.perf_counter()
        try:
            yield
        finally:
            with self._lock:
                self._paused += time.perf_counter() - began

    def active(self) -> float:
        end = self.ended if self.ended is not None else time.perf_counter()
        return end - self.started - self._paused

    def expired(self) -> bool:
        return self.active() >= self.seconds

    def close(self) -> None:
        self.ended = time.perf_counter()


@dataclass
class Deployment:
    """One built polystore with its runtime and the workload's per-deployment state."""

    mimic: MimicDeployment
    runtime: PolystoreRuntime
    state: Any = None
    setup_s: float = 0.0

    def close(self) -> None:
        self.runtime.shutdown()


def set_up(dataset, workload) -> Deployment:
    """Build, start and warm one deployment; its wall time is one ``setup_s`` sample."""
    began = time.perf_counter()
    mimic = build_polystore(dataset)
    runtime = PolystoreRuntime(mimic.bigdawg, workers=RUNTIME_WORKERS)
    deployment = Deployment(mimic, runtime)
    deployment.state = workload.prepare(deployment)
    workload.warm_up(deployment)
    deployment.setup_s = time.perf_counter() - began
    return deployment


def set_up_repeatedly(dataset, workload, repeats: int) -> tuple[Deployment, list[float]]:
    """Set up ``repeats`` times; keep the last deployment, report every time."""
    times: list[float] = []
    for _ in range(repeats - 1):
        discarded = set_up(dataset, workload)
        times.append(discarded.setup_s)
        discarded.close()
        del discarded
        gc.collect()
    deployment = set_up(dataset, workload)
    times.append(deployment.setup_s)
    return deployment, times


def run_clients(workload, deployment: Deployment, window: Window,
                tracer: Tracer | None = None) -> list[OpRecord]:
    """Run the workload's closed-loop clients until the window expires.

    With ``tracer``, each client thread installs it with ``tracer_scope``
    so the spans of its operations land there and nowhere else.
    """
    results: list[list[OpRecord]] = [[] for _ in range(workload.clients)]
    errors: list[BaseException] = []

    def client(index: int) -> None:
        try:
            with tracer_scope(tracer) if tracer is not None else nullcontext():
                workload.client_loop(deployment, index, window, results[index])
        except BaseException as error:  # noqa: BLE001 - re-raised in the caller
            errors.append(error)

    if workload.clients == 1:
        client(0)
    else:
        threads = [
            threading.Thread(target=client, args=(i,), name=f"bench-client-{i}")
            for i in range(workload.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    window.close()
    if errors:
        raise errors[0]
    return [record for per_client in results for record in per_client]


# ------------------------------------------------------------------ statistics
def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default), ``q`` in 0..100."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def beyond(count: int, q: float) -> int:
    """Samples strictly above the ``q`` percentile of ``count`` samples."""
    return int(count - int(np.ceil(count * q / 100.0)))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int, runtime: PolystoreRuntime) -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "seed": seed,
        "relational_parallelism": resolve_parallelism("auto"),
        "runtime_workers": runtime.workers,
        "cache_capacity": runtime.cache.capacity,
    }


def counter_deltas(before: dict, after: dict) -> dict[str, Any]:
    """Deltas of the runtime counters the report cares about.

    Numeric values become ``after - before``; dict-valued gauges (the
    relational tallies) are differenced key by key.  Histogram summaries
    (``queue_wait_s_*``) are windows, not running totals, so they are
    reported as read after the window.
    """
    keys = [
        "cache_hits", "cache_misses", "intents_written", "retry_attempts",
        "breaker_rejections", "failover_total", "stale_served", "writes_failed_over",
        "admission_wait_s_total", "admission_held_s_total",
        "queue_wait_s_count", "queue_wait_s_total",
    ]
    keys += sorted(k for k in after if k.startswith("relational_"))
    out: dict[str, Any] = {}
    for key in keys:
        new, old = after.get(key), before.get(key)
        if isinstance(new, dict):
            old = old or {}
            out[key] = {k: v - old.get(k, 0) for k, v in new.items() if v - old.get(k, 0)}
        elif isinstance(new, (int, float)):
            out[key] = round(new - (old or 0), 6)
    for key in ("queue_wait_s_p50", "queue_wait_s_p99", "queue_wait_s_max"):
        if key in after:
            out[key] = after[key]
    # relational_peak_build_bytes is a running maximum, not a total.
    if "relational_peak_build_bytes" in after:
        out["relational_peak_build_bytes"] = after["relational_peak_build_bytes"]
    return out


RESILIENCE_COUNTERS = ("retry_attempts", "breaker_rejections", "failover_total",
                       "stale_served", "writes_failed_over")


def degraded(deltas: dict[str, Any]) -> list[str]:
    """Resilience counters that moved: a healthy run moves none of them."""
    return [key for key in RESILIENCE_COUNTERS if deltas.get(key)]
