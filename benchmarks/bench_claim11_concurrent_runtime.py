"""CLAIM-11 — the serving layer: concurrent throughput and result caching.

The paper positions BigDAWG as middleware in front of many simultaneous
clients; the ROADMAP's north star is heavy multi-tenant traffic.  This
benchmark measures the :class:`~repro.runtime.scheduler.PolystoreRuntime`
on a mixed workload spanning all four islands (relational, array, text,
d4m) of a synthetic MIMIC deployment:

1. **Latency-hiding sweep** — the same workload at 1, 2, 4 and 8 workers.
   Every engine here is in-process, so ``engine_latency`` emulates the
   network hop a real deployment pays per engine dispatch; the runtime's
   job is to overlap those hops (sleeps) across clients while per-engine
   admission keeps any single engine inside its slot budget.  Throughput
   at 8 workers must be at least 3x the single-worker run.  This measures
   how well the pool hides engine latency, not compute scaling.
2. **Compute-bound sweep** — the same workload and worker counts with no
   emulated latency, so only in-process compute (serialized by the GIL)
   remains.  Its numbers are recorded; there is no floor.
3. **Result cache** — repeated queries must get dramatically cheaper than
   their first (cold) execution, and a CAST must invalidate the cache: the
   next run misses, recomputes, and re-primes.

Set ``RUNTIME_BENCH_SMOKE=1`` for the CI-sized run (small dataset, fewer
rounds, same assertions).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.mimic import MimicGenerator, build_polystore
from repro.runtime import PolystoreRuntime

SMOKE = os.environ.get("RUNTIME_BENCH_SMOKE", "") not in ("", "0")

#: Emulated per-dispatch network hop to an out-of-process engine (a typical
#: same-datacenter RTT plus engine-side connection handling).  The in-process
#: compute the engines do under the GIL does not overlap across workers, so
#: the dispatch hop is what the worker pool can actually parallelize — the
#: same quantity a real middleware deployment overlaps.
ENGINE_LATENCY = 0.010
WORKER_COUNTS = (1, 2, 4, 8)
ROUNDS = 4 if SMOKE else 12

#: One query per island: the mixed 4-island read workload.
WORKLOAD = [
    "RELATIONAL(SELECT count(*) AS n FROM prescriptions WHERE drug = 'heparin')",
    "ARRAY(aggregate(waveform_history, avg(value)))",
    'TEXT(SEARCH notes FOR "pain")',
    "D4M(ASSOC prescriptions DEGREE ROWS)",
    "RELATIONAL(SELECT p.race, avg(a.stay_days) AS avg_stay FROM patients p "
    "JOIN admissions a ON p.patient_id = a.patient_id GROUP BY p.race)",
    "ARRAY(aggregate(waveform_history, max(value), min(value)))",
]


@pytest.fixture(scope="module")
def deployment():
    generator = MimicGenerator(
        patient_count=40 if SMOKE else 120,
        waveform_patients=2,
        waveform_samples=500 if SMOKE else 2000,
        sample_rate_hz=125.0,
        anomaly_fraction=1.0,
        seed=7,
    )
    return build_polystore(generator=generator)


def _run_workload(
    deployment, workers: int, use_cache: bool, latency: float = ENGINE_LATENCY
) -> tuple[float, float]:
    """Run ROUNDS copies of the mixed workload; returns (seconds, qps)."""
    queries = WORKLOAD * ROUNDS
    runtime = PolystoreRuntime(
        deployment.bigdawg,
        workers=workers,
        slots_per_engine=4,
        engine_latency=latency,
    )
    try:
        started = time.perf_counter()
        results = runtime.execute_many(queries, use_cache=use_cache)
        elapsed = time.perf_counter() - started
    finally:
        runtime.shutdown()
    assert len(results) == len(queries) and all(r is not None for r in results)
    return elapsed, len(queries) / elapsed


def _sweep(deployment, label: str, latency: float) -> tuple[dict[int, float], float]:
    """Throughput at every worker count; returns (qps by workers, 8-vs-1)."""
    qps_by_workers: dict[int, float] = {}
    for workers in WORKER_COUNTS:
        elapsed, qps = _run_workload(deployment, workers, use_cache=False, latency=latency)
        qps_by_workers[workers] = qps
        print(f"[{label}] workers={workers}: {elapsed:.3f}s, {qps:7.1f} q/s")
    speedup = qps_by_workers[8] / qps_by_workers[1]
    print(f"[{label}] speedup 8 workers vs 1: {speedup:.2f}x")
    from bench_recording import record_bench

    record_bench(
        "claim11", label.replace("-", "_"),
        engine_latency_s=latency,
        qps_by_workers={str(k): v for k, v in qps_by_workers.items()},
        speedup_8_vs_1=speedup,
        smoke=SMOKE,
    )
    return qps_by_workers, speedup


def test_claim11_throughput_scales_with_workers(deployment):
    """Latency hiding: >=3x throughput at 8 workers vs 1 on the mixed
    4-island workload when every dispatch pays ``ENGINE_LATENCY``."""
    _, speedup = _sweep(deployment, "latency-hiding", ENGINE_LATENCY)
    assert speedup >= 3.0, f"expected >=3x at 8 workers, got {speedup:.2f}x"


def test_claim11_compute_bound_sweep(deployment):
    """The same sweep with no emulated latency: records how in-process
    compute scales with workers.  No floor."""
    qps_by_workers, _ = _sweep(deployment, "compute-bound", 0.0)
    assert all(qps > 0 for qps in qps_by_workers.values())


def test_claim11_cache_cuts_repeated_query_latency(deployment):
    """Cache hits skip planning, admission and engine dispatch entirely."""
    runtime = PolystoreRuntime(
        deployment.bigdawg, workers=4, engine_latency=ENGINE_LATENCY
    )
    try:
        query = WORKLOAD[0]
        started = time.perf_counter()
        cold = runtime.execute(query)
        cold_seconds = time.perf_counter() - started
        warm_runs = 20
        started = time.perf_counter()
        for _ in range(warm_runs):
            warm = runtime.execute(query)
        warm_seconds = (time.perf_counter() - started) / warm_runs
        assert warm.to_dicts() == cold.to_dicts()
        assert runtime.cache.hits >= warm_runs
        print(f"cold={cold_seconds * 1e3:.2f}ms warm={warm_seconds * 1e3:.3f}ms "
              f"({cold_seconds / warm_seconds:.0f}x)")
        from bench_recording import record_bench

        record_bench(
            "claim11", "result_cache",
            cold_seconds=cold_seconds,
            warm_seconds=warm_seconds,
            speedup=cold_seconds / warm_seconds,
            smoke=SMOKE,
        )
        assert warm_seconds < cold_seconds / 2

        # A CAST invalidates: the next execution is a miss and recomputes.
        hits_before = runtime.cache.hits
        deployment.bigdawg.cast("waveform_history", "postgres", target_name="wf_rel",
                                dimensions=None)
        after_cast = runtime.execute(query)
        assert after_cast.to_dicts() == cold.to_dicts()
        assert runtime.cache.hits == hits_before  # miss, not a stale hit
        assert runtime.cache.invalidations >= 1
        print("cache after CAST:", runtime.cache.describe())
    finally:
        runtime.shutdown()


def test_claim11_admission_bounds_engine_concurrency(deployment):
    """Even at 8 workers, no engine ever exceeds its slot budget."""
    runtime = PolystoreRuntime(
        deployment.bigdawg, workers=8, slots_per_engine=2,
        engine_latency=ENGINE_LATENCY,
    )
    try:
        runtime.execute_many(WORKLOAD * ROUNDS, use_cache=False)
        for name, gate in runtime.admission.describe().items():
            assert gate["in_use"] == 0, f"engine {name} leaked a slot"
            assert gate["slots"] == 2
        snap = runtime.metrics.snapshot(queue_depth=runtime.admission.queue_depth())
        assert snap["failed"] == 0
        print("metrics:", snap)
    finally:
        runtime.shutdown()
