"""Benchmark of the BigDAWG polystore reproduction.

Run one workload (the form the result line is defined for)::

    python3 perfbench/run.py --workload cohort-analytics --seed 4242 --seconds 30 --trace 0

or every workload, untraced, plus a held-out seed that checks each workload's
shape (operation mix, cache hit ratio)::

    python3 perfbench/run.py --workload all

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half the
window untraced and half traced and reports the per-layer ledger, writing the
spans to ``perfbench/out/`` as Chrome trace and OTLP JSON.  Every result is
checked (SQLite oracle for SQL, the generated dataset for everything else);
the last line of standard output is one JSON object, and the exit code is 1
when any operation failed or returned a wrong result.  ``--write-manifest``
regenerates ``BENCHMARK.json`` from the definitions below.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Differs from the seeds the tests and claim benchmarks use (7, 99).
DEFAULT_SEED = 4242
HELD_OUT_SEED = 9173
RUN_SECONDS = 30
#: Operations whose spans the traced run writes out (Chrome trace and OTLP).
TRACES_WRITTEN = 200

#: Why each workload exists.  ``--workload all`` runs every one of them;
#: BENCHMARK.json lists only GATED ones.
WORKLOAD_WHY = {
    "oltp-mixed": "2 clients, 90% Zipf point reads/10% writes: runtime fixed cost, "
                  "result cache and journal dominate; read texts outnumber the cache",
    "cohort-analytics": "1 client, join/group-by/having analytics at 10k patients: "
                        "relational operators do the work, the cache is bypassed",
    "cross-island": "1 client: shim CAST SQL, text, D4M, array windows, binary CASTs and "
                    "streaming ingest; islands, shims, codec and non-SQL engines do the work",
}

#: Workloads steady enough to gate a change.  oltp-mixed is left out: over
#: ten seeds on a shared 2-vCPU host its op_p90_ms spread (quartile distance
#: over median) measured 0.23, 0.29 and 0.48, above the widest bound of 0.25;
#: its two clients and two runtime workers hand the interpreter lock back
#: and forth on every operation, which host contention stretches unevenly.
GATED = ("cohort-analytics", "cross-island")

#: name -> (unit, better, bound as a share of the parent's median).  Timings
#: get the widest bound: on a shared 2-vCPU host the same seed's throughput
#: drifts by a coefficient of variation of about 14% between consecutive
#: 5-second windows of one process, so a tighter gate would fire on noise.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "op_p90_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.1),
}


def manifest() -> dict:
    from ledger import PER_LAYER_UNITS

    higher = ("cache.hit_ratio", "trace.overhead_ratio")
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WORKLOAD_WHY[name]} for name in GATED],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": "higher" if name in higher else "lower"}
            for name, unit in PER_LAYER_UNITS.items()
        ],
    }


# ------------------------------------------------------------------ one run
def run_one(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    from harness import SETUP_REPEATS, degraded, environment, set_up_repeatedly
    from repro.mimic import MimicGenerator
    from oracle import SqliteOracle
    from workloads import WORKLOADS

    cls = WORKLOADS[workload_name]
    began = time.perf_counter()
    dataset = MimicGenerator(patient_count=cls.patients, waveform_patients=cls.waveform_patients,
                             waveform_samples=cls.waveform_samples, seed=seed).generate()
    sizing = {**dataset.summary(), "dataset_s": round(time.perf_counter() - began, 3),
              "waveform_samples": cls.waveform_samples, "clients": cls.clients}
    oracle = SqliteOracle(dataset)
    workload = cls(dataset, seed, oracle)
    deployment, setup_times = set_up_repeatedly(dataset, workload,
                                                1 if trace else SETUP_REPEATS)
    # Only the deployment's engines should be on the heap the cyclic garbage
    # collector walks during the window, not the generator's objects.
    deployment.mimic.dataset = dataset = None
    gc.collect()
    runtime = deployment.runtime
    record = {"workload": workload_name, "trace": int(trace),
              "environment": environment(seed, runtime), "sizing": sizing,
              "setup_s_samples": setup_times}
    print(f"# perfbench {workload_name} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"# environment {json.dumps(record['environment'])}")

    if trace:
        records, deltas, metrics, units, rows = _traced_run(workload, deployment, seconds,
                                                            record)
    else:
        records, deltas, metrics, units, rows = _timed_run(workload, deployment, seconds,
                                                           setup_times)
    failures = Counter(r.error for r in records if r.error)
    mismatches = workload.verify(deployment)
    if mismatches:
        failures["final-state mismatch"] += mismatches
    failed = sum(failures.values())
    hits, misses = deltas.get("cache_hits", 0), deltas.get("cache_misses", 0)
    kinds = Counter(r.kind for r in records)
    sizing.update(distinct_op_texts=len(workload.texts), cache_capacity=runtime.cache.capacity)
    record.update(
        counters=deltas, degraded=degraded(deltas), failures=dict(failures), metrics=metrics,
        shape={"op_mix": {k: round(n / len(records), 4) for k, n in sorted(kinds.items())},
               "cache_hit_ratio": round(hits / (hits + misses), 4) if hits + misses else 0.0},
    )
    for key in ("sizing", "shape", "counters", "failures"):
        print(f"# {key} {json.dumps(record[key])}")
    print(f"# degraded: {', '.join(record['degraded']) or 'no (resilience counters all 0)'}")
    for title, table in rows:
        print(f"{title}:")
        for name, value, unit, samples, note in table:
            print(f"  {name:<34} {value:>14.4f} {unit:<6} n={samples:<7} {note}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{workload_name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    deployment.close()
    oracle.close()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def _timed_run(workload, deployment, seconds: float, setup_times: list[float]):
    """The untraced window: end-to-end metrics plus the per-kind figures."""
    from harness import (Window, beyond, counter_deltas, peak_rss_mb, percentile,
                         run_clients)

    runtime = deployment.runtime
    before = runtime.metrics.snapshot()
    window = Window(seconds)
    records = run_clients(workload, deployment, window)
    deltas = counter_deltas(before, runtime.metrics.snapshot())
    latencies = [r.latency_s for r in records]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(records) / window.active(),
        "op_p50_ms": percentile(latencies, 50) * 1e3,
        "op_p90_ms": percentile(latencies, 90) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    units = {name: spec[0] for name, spec in END_TO_END.items()}
    samples = {"setup_s": len(setup_times), "peak_rss_mb": 1}
    notes = {"setup_s": "median of set-ups", "op_p90_ms": f"{beyond(len(records), 90)} beyond",
             "peak_rss_mb": "whole process"}
    end_to_end = [(name, metrics[name], units[name], samples.get(name, len(records)),
                   notes.get(name, "")) for name in END_TO_END]
    return records, deltas, metrics, units, [("end-to-end metrics", end_to_end),
                                             ("per-kind metrics", _per_kind(records))]


def _per_kind(records) -> list[tuple[str, float, str, int, str]]:
    """Figures of one kind of operation: (name, value, unit, samples, note)."""
    from harness import beyond, percentile

    rows = []
    for kind, tail in (("read", 99), ("write", 99), ("query", 90)):
        values = [r.latency_s for r in records if r.kind == kind]
        if not values:
            continue
        rows.append((f"{kind}_p50_ms", percentile(values, 50) * 1e3, "ms", len(values), ""))
        extra = beyond(len(values), tail)
        note = f"{extra} beyond" + ("" if extra >= 10 else "; fewer than 10, indicative only")
        rows.append((f"{kind}_p{tail}_ms", percentile(values, tail) * 1e3, "ms",
                     len(values), note))
    for kind, name in (("cast", "cast_rows_per_s"), ("ingest", "ingest_tuples_per_s")):
        chosen = [r for r in records if r.kind == kind]
        if chosen:
            rate = sum(r.units for r in chosen) / sum(r.units_s for r in chosen)
            rows.append((name, rate, "1/s", len(chosen), f"{kind} operations"))
    failed = sum(not r.ok for r in records)
    rows.append(("fail_ratio", failed / len(records), "ratio", len(records), ""))
    return rows


def _traced_run(workload, deployment, seconds: float, record: dict):
    """Half the window untraced, half traced with every layer wrapped."""
    from harness import Window, counter_deltas, run_clients
    from ledger import PER_LAYER_UNITS, Instrumentation, per_layer_metrics
    from repro.observability.export import write_chrome_trace, write_otlp
    from repro.observability.tracing import Tracer

    runtime = deployment.runtime
    untraced_window = Window(seconds / 2, "untraced")
    untraced = run_clients(workload, deployment, untraced_window)

    alerts = deployment.mimic.streaming.alerts
    alerts_before = len(alerts)
    before = runtime.metrics.snapshot()
    tracer = Tracer(enabled=True, max_spans=2_000_000)
    instrumentation = Instrumentation()
    instrumentation.install(runtime)
    try:
        traced_window = Window(seconds / 2, "traced")
        traced = run_clients(workload, deployment, traced_window, tracer)
    finally:
        instrumentation.uninstall()
    deltas = counter_deltas(before, runtime.metrics.snapshot())
    spans = tracer.spans()
    metrics, diagnostics = per_layer_metrics(
        spans, instrumentation, deltas, len(untraced) / untraced_window.active(),
        len(traced) / traced_window.active(), len(alerts) - alerts_before,
    )
    diagnostics.update(spans=len(spans), spans_dropped=tracer.dropped)
    record["ledger"] = diagnostics
    print(f"# ledger {json.dumps(diagnostics)}")
    # The span files hold the first operations' traces only, so their size
    # does not grow with the run; the ledger used every span.
    first = set(sorted({s.trace_id for s in spans if s.name == "bench.op"})[:TRACES_WRITTEN])
    kept = [s for s in spans if s.trace_id in first]
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, record["workload"])
    write_chrome_trace(f"{stem}.chrome.json", kept)
    write_otlp(f"{stem}.otlp.json", kept)
    table = [(name, value, PER_LAYER_UNITS[name], diagnostics["ops_traced"], "")
             for name, value in metrics.items()]
    return untraced + traced, deltas, metrics, PER_LAYER_UNITS, [("per-layer metrics", table)]


# ------------------------------------------------------------------ all workloads
def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, each in its own process, then the held-out seed."""
    status = 0
    shapes: dict[tuple[str, int], dict] = {}
    for chosen_seed in (seed, HELD_OUT_SEED):
        for name in WORKLOAD_WHY:
            command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", str(chosen_seed), "--seconds", str(seconds), "--trace", "0"]
            completed = subprocess.run(command, capture_output=True, text=True, timeout=600)
            sys.stdout.write(completed.stdout)
            sys.stderr.write(completed.stderr)
            status = status or completed.returncode
            for line in completed.stdout.splitlines():
                if line.startswith("# shape "):
                    shapes[(name, chosen_seed)] = json.loads(line[len("# shape "):])
    print(f"workload shape, seed {seed} vs held-out seed {HELD_OUT_SEED}:")
    for name in WORKLOAD_WHY:
        a, b = shapes.get((name, seed)), shapes.get((name, HELD_OUT_SEED))
        if a is None or b is None:
            print(f"  {name:<18} no shape: a run did not finish")
            continue
        mix_gap = max(abs(a["op_mix"].get(k, 0) - b["op_mix"].get(k, 0))
                      for k in set(a["op_mix"]) | set(b["op_mix"]))
        hit_gap = abs(a["cache_hit_ratio"] - b["cache_hit_ratio"])
        verdict = "close" if mix_gap <= 0.02 and hit_gap <= 0.05 else "DIFFERENT"
        print(f"  {name:<18} mix {a['op_mix']} vs {b['op_mix']} | hit ratio "
              f"{a['cache_hit_ratio']} vs {b['cache_hit_ratio']} -> {verdict}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOAD_WHY, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
