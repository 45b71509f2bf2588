"""The three benchmark workloads.

Every workload is a closed loop: a client sends its next operation only after
the previous one returned, as a clinician at a console does.  Inputs are drawn
from the ``--seed``; the polystore receives only the generated operations.

* ``oltp-mixed`` — 2 clients, 90% point reads / 10% writes over 5k patients.
  The runtime's fixed cost (parse, routing, catalog, admission, resilience,
  journal, result cache) dominates; operators do almost nothing.
* ``cohort-analytics`` — 1 client, parameterized SQL analytics over 10k
  patients.  The relational engine does nearly all the work.
* ``cross-island`` — 1 client cycling through shim materialization, text
  search, D4M, array windows, explicit binary CASTs and streaming ingest
  (a batch appended to the stream, then read back with SQL).
"""

from __future__ import annotations

import itertools
import time
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from repro.common.rng import derive_seed, make_rng
from repro.mimic.generator import DRUGS, LAB_TESTS
from repro.monitoring import ReferenceProfile, WaveformMonitor
from repro.observability.tracing import get_tracer

from harness import WRONG_RESULT, Deployment, OpRecord, Window
from oracle import SqliteOracle, relation_rows, rows_equal, values_equal


def scoped(sql: str) -> str:
    """Wrap SQL in the relational island's SCOPE, as a BigDAWG client writes it."""
    return f"RELATIONAL({sql})"


def timed_op(kind: str, call) -> tuple[object, float, BaseException | None]:
    """Run one client operation under a ``bench.op`` span; time it.

    The span is the root of the operation's trace in the traced run (a
    disabled tracer hands out a shared no-op span, so the untraced run pays
    one attribute lookup).  An operation that raises is returned as a failure,
    never re-raised: the closed loop keeps running and ``fail_ratio`` counts it.
    """
    with get_tracer().span("bench.op", kind="bench", op=kind):
        began = time.perf_counter()
        try:
            result = call()
        except Exception as error:  # noqa: BLE001 - counted as a failed operation
            return None, time.perf_counter() - began, error
        return result, time.perf_counter() - began, None


def verdict(ok: bool) -> str | None:
    return None if ok else WRONG_RESULT


def _affected_one(relation) -> bool:
    rows = relation_rows(relation)
    return len(rows) == 1 and rows[0][0] == 1


# ------------------------------------------------------------------ oltp-mixed
ZIPF_EXPONENT = 1.2
PRESCRIPTION_ID_BASE = 10_000_000
READ_TEMPLATES = (
    "SELECT patient_id, age, sex, race FROM patients WHERE patient_id = {}",
    "SELECT admission_id, admission_type, outcome FROM admissions WHERE patient_id = {}",
)


@dataclass
class OltpState:
    ids: "itertools.count[int]" = field(
        default_factory=lambda: itertools.count(PRESCRIPTION_ID_BASE)
    )
    #: SQL of every applied write, for the oracle's final-state replay.
    write_log: list[str] = field(default_factory=list)


class OltpMixed:
    """Point reads and single-row writes from two clients."""

    name = "oltp-mixed"
    clients = 2
    patients = 5000
    waveform_patients = 2
    waveform_samples = 1000
    read_share = 0.9
    warm_up_ops = 400

    def __init__(self, dataset, seed: int, oracle: SqliteOracle) -> None:
        self.seed = seed
        self.oracle = oracle
        ids = np.array([p.patient_id for p in dataset.patients])
        weights = np.arange(1, len(ids) + 1, dtype=float) ** -ZIPF_EXPONENT
        self._cdf = np.cumsum(weights) / weights.sum()
        # Which patients are hot depends on the seed, not on id order.
        self._patient_by_rank = make_rng(derive_seed(seed, "oltp.hot")).permutation(ids)
        self._admissions = [(a.admission_id, a.patient_id) for a in dataset.admissions]
        #: Distinct read texts seen, to compare with the result cache's capacity.
        self.texts: set[str] = set()
        # Answer every possible read now, so each read is checked the moment
        # it returns and no result outlives its operation.
        for template in READ_TEMPLATES:
            for key in ids:
                oracle.query(template.format(key))

    def prepare(self, deployment: Deployment) -> OltpState:
        return OltpState()

    def _patient(self, rng) -> int:
        rank = int(np.searchsorted(self._cdf, rng.random(), side="right"))
        return int(self._patient_by_rank[min(rank, len(self._patient_by_rank) - 1)])

    def _next_op(self, rng, state: OltpState) -> tuple[str, str]:
        if rng.random() < self.read_share:
            key = self._patient(rng)
            return "read", READ_TEMPLATES[int(rng.random() < 0.5)].format(key)
        admission_id, patient_id = self._admissions[int(rng.integers(len(self._admissions)))]
        if rng.random() < 0.5:
            drug = DRUGS[int(rng.integers(len(DRUGS)))]
            dose = round(float(rng.uniform(1, 500)), 1)
            return "write", (f"INSERT INTO prescriptions VALUES ({next(state.ids)}, "
                             f"{admission_id}, {patient_id}, '{drug}', {dose})")
        return "write", (f"UPDATE admissions SET stay_days = stay_days + 1 "
                         f"WHERE admission_id = {admission_id}")

    def _run_op(self, deployment: Deployment, kind: str, sql: str) -> OpRecord:
        relation, latency, error = timed_op(kind, lambda: deployment.runtime.execute(scoped(sql)))
        if error is not None:
            return OpRecord(kind, latency, error=type(error).__name__)
        if kind == "write":
            deployment.state.write_log.append(sql)
            return OpRecord(kind, latency, verdict(_affected_one(relation)), units=1)
        self.texts.add(sql)
        ok = rows_equal(relation_rows(relation), self.oracle.query(sql), ordered=False)
        return OpRecord(kind, latency, verdict(ok), units=len(relation.rows))

    def warm_up(self, deployment: Deployment) -> None:
        rng = make_rng(derive_seed(self.seed, "oltp.warm-up"))
        for _ in range(self.warm_up_ops):
            self._run_op(deployment, *self._next_op(rng, deployment.state))

    def client_loop(self, deployment: Deployment, client: int, window: Window,
                    out: list[OpRecord]) -> None:
        rng = make_rng(derive_seed(self.seed, f"oltp.{window.label}.{client}"))
        while not window.expired():
            out.append(self._run_op(deployment, *self._next_op(rng, deployment.state)))

    def verify(self, deployment: Deployment) -> int:
        """Compare the written tables' final state with SQLite's after the same writes.

        Reads project columns no write touches and writes commute (unique
        insert ids, ``stay_days + 1`` increments), so neither the reads'
        answers nor the final state depend on how the two clients interleaved.
        """
        probes = [
            "SELECT prescription_id, admission_id, patient_id, drug, dose_mg FROM prescriptions",
            "SELECT admission_id, stay_days FROM admissions",
        ]
        expected = self.oracle.scratch_state(deployment.state.write_log, probes)
        engine = deployment.mimic.relational
        return sum(
            not rows_equal(relation_rows(engine.execute(probe)), rows, ordered=False)
            for probe, rows in zip(probes, expected)
        )


# ------------------------------------------------------------ cohort-analytics
def _cohort_join_groupby(rng) -> tuple[str, bool]:
    age = int(rng.integers(18, 91))
    stay = round(float(rng.uniform(2.0, 30.0)), 1)
    return (f"SELECT p.race, count(*) AS n, avg(a.stay_days) AS avg_stay FROM patients p "
            f"JOIN admissions a ON p.patient_id = a.patient_id "
            f"WHERE p.age >= {age} AND a.stay_days < {stay} GROUP BY p.race"), False


def _cohort_selective_join(rng) -> tuple[str, bool]:
    drug = DRUGS[int(rng.integers(len(DRUGS)))]
    dose = round(float(rng.uniform(400.0, 495.0)), 1)
    return (f"SELECT pr.prescription_id, a.stay_days, pr.dose_mg FROM prescriptions pr "
            f"JOIN admissions a ON pr.admission_id = a.admission_id "
            f"WHERE pr.drug = '{drug}' AND pr.dose_mg > {dose}"), False


def _cohort_having_top(rng) -> tuple[str, bool]:
    test = LAB_TESTS[int(rng.integers(len(LAB_TESTS)))]
    cut = round(float(rng.uniform(1.0, 6.0)), 2)
    least = int(rng.integers(2, 4))
    return (f"SELECT l.patient_id, count(*) AS n, max(l.value) AS peak FROM labs l "
            f"WHERE l.test = '{test}' AND l.value > {cut} GROUP BY l.patient_id "
            f"HAVING count(*) >= {least} ORDER BY peak DESC, l.patient_id LIMIT 20"), True


def _cohort_global_aggregate(rng) -> tuple[str, bool]:
    drug = DRUGS[int(rng.integers(len(DRUGS)))]
    low = round(float(rng.uniform(1.0, 400.0)), 1)
    high = round(low + float(rng.uniform(50.0, 150.0)), 1)
    return (f"SELECT count(*) AS n, avg(dose_mg) AS avg_dose, max(dose_mg) AS max_dose "
            f"FROM prescriptions WHERE drug = '{drug}' AND dose_mg BETWEEN {low} AND {high}"), False


def _cohort_labs_by_type(rng) -> tuple[str, bool]:
    severity = round(float(rng.uniform(0.3, 0.9)), 3)
    value = round(float(rng.uniform(0.5, 3.0)), 2)
    return (f"SELECT a.admission_type, l.test, count(*) AS n, avg(l.value) AS mean FROM labs l "
            f"JOIN admissions a ON l.admission_id = a.admission_id "
            f"WHERE a.severity > {severity} AND l.value > {value} "
            f"GROUP BY a.admission_type, l.test"), False


class CohortAnalytics:
    """Parameterized analytics; the templates run in a fixed rotation.

    The rotation has six slots and the selective join, whose cost sits in
    the middle of the five templates', takes two of them: the median then
    falls in the middle of one template's latencies and the 90th percentile
    among the two costliest, not on the edge between two templates.
    """

    name = "cohort-analytics"
    clients = 1
    patients = 10000
    waveform_patients = 2
    waveform_samples = 1000
    templates = (_cohort_join_groupby, _cohort_selective_join, _cohort_having_top,
                 _cohort_global_aggregate, _cohort_selective_join, _cohort_labs_by_type)

    def __init__(self, dataset, seed: int, oracle: SqliteOracle) -> None:
        self.seed = seed
        self.oracle = oracle
        self.texts: set[str] = set()

    def prepare(self, deployment: Deployment) -> None:
        return None

    def _run_op(self, deployment: Deployment, window: Window, sql: str,
                ordered: bool) -> OpRecord:
        relation, latency, error = timed_op(
            "query", lambda: deployment.runtime.execute(scoped(sql))
        )
        if error is not None:
            return OpRecord("query", latency, error=type(error).__name__)
        self.texts.add(sql)
        with window.paused():
            ok = rows_equal(relation_rows(relation), self.oracle.query(sql), ordered)
        return OpRecord("query", latency, verdict(ok), units=len(relation.rows))

    def warm_up(self, deployment: Deployment) -> None:
        rng = make_rng(derive_seed(self.seed, "cohort.warm-up"))
        window = Window(float("inf"), "warm-up")
        for template in self.templates:
            self._run_op(deployment, window, *template(rng))

    def client_loop(self, deployment: Deployment, client: int, window: Window,
                    out: list[OpRecord]) -> None:
        rng = make_rng(derive_seed(self.seed, f"cohort.{window.label}"))
        for template in itertools.cycle(self.templates):
            if window.expired():
                return
            out.append(self._run_op(deployment, window, *template(rng)))

    def verify(self, deployment: Deployment) -> int:
        return 0  # checked as each result returned


# ---------------------------------------------------------------- cross-island
TEXT_PHRASES = ("very sick", "chest pain", "rate control", "nasal cannula",
                "cultures pending", "goals of care", "vital signs stable")
FEED_BATCH = 125
MIN_CYCLES = 10


@dataclass
class CrossIslandState:
    monitor: WaveformMonitor
    retention_s: float
    #: Tuples appended so far; tuple k carries timestamp k / sample rate.
    fed: int = 0
    #: (timestamp, value) of the tuples the stream should still retain.
    retained: deque = field(default_factory=deque)
    casts: int = 0


def _postings(notes, phrase: str) -> list[tuple[str, str, int]]:
    """(row, qualifier, occurrences) of every note containing ``phrase``."""
    target = phrase.split()
    postings = []
    for note in notes:
        words = note.text.split()
        hits = sum(words[i:i + len(target)] == target
                   for i in range(len(words) - len(target) + 1))
        if hits:
            postings.append((f"patient_{note.patient_id:06d}",
                             f"{note.author}:note_{note.note_id:08d}", hits))
    return postings


class CrossIsland:
    """One client cycling through every island, CAST and the live feed."""

    name = "cross-island"
    clients = 1
    patients = 3000
    waveform_patients = 8
    waveform_samples = 4000

    def __init__(self, dataset, seed: int, oracle: SqliteOracle) -> None:
        # Everything the checks need is derived here; nothing keeps the
        # generated dataset alive once the deployments are built.
        self.seed = seed
        waves = dataset.waveforms
        self._values = np.stack([np.asarray(w.values, dtype=float) for w in waves])
        self._rate = waves[0].sample_rate_hz
        self._feed = self._values.reshape(-1)
        first = waves[0]
        self._calm = self._values[0, : first.anomaly_start or None].copy()
        self._labs = (len(dataset.labs), sum(l.lab_id for l in dataset.labs),
                      float(np.sum([l.value for l in dataset.labs])))
        self._degrees = [(key, float(n)) for key, n in Counter(
            f"patient_{n.patient_id:06d}" for n in dataset.notes).items()]
        self._postings = {phrase: _postings(dataset.notes, phrase) for phrase in TEXT_PHRASES}
        self._window_memo: dict[int, tuple[float, float]] = {}
        self.texts: set[str] = set()

    # -------------------------------------------------------------- set-up
    def prepare(self, deployment: Deployment) -> CrossIslandState:
        monitor = WaveformMonitor(ReferenceProfile.from_samples(self._calm, self._rate),
                                  window_seconds=0.5)
        streaming = deployment.mimic.streaming
        monitor.register(streaming, "waveform_feed")
        return CrossIslandState(
            monitor=monitor,
            retention_s=streaming.stream("waveform_feed").retention_seconds,
        )

    def cycle(self, rng) -> list[tuple]:
        """One pass over every operation, with this pass's parameters.

        Six of the twelve operations are feed batches of like cost, so the
        median lands among them, and the two CASTs are the slowest two, so
        the 90th percentile lands between them.
        """
        phrase = TEXT_PHRASES[int(rng.integers(len(TEXT_PHRASES)))]
        minimum = 3 if rng.random() < 0.5 else None
        return [
            ("ingest",),
            ("shim", round(float(rng.uniform(-1.5, 1.5)), 2)),
            ("ingest",),
            ("text", phrase, minimum),
            ("ingest",),
            ("d4m",),
            ("ingest",),
            ("array", int(rng.integers(4, 65))),
            ("ingest",),
            ("cast", "labs", "scidb"),
            ("ingest",),
            ("cast", "waveform_history", "postgres"),
        ]

    def warm_up(self, deployment: Deployment) -> None:
        rng = make_rng(derive_seed(self.seed, "cross.warm-up"))
        window = Window(float("inf"), "warm-up")
        for op in self.cycle(rng):
            self._run_op(deployment, op, window)

    def client_loop(self, deployment: Deployment, client: int, window: Window,
                    out: list[OpRecord]) -> None:
        # Whole cycles only, so every run measures the same operation mix,
        # and at least MIN_CYCLES of them, so the 90th percentile always has
        # ten samples beyond it even when the host is slow.
        rng = make_rng(derive_seed(self.seed, f"cross.{window.label}"))
        cycles = 0
        while cycles < MIN_CYCLES or not window.expired():
            for op in self.cycle(rng):
                out.append(self._run_op(deployment, op, window))
            cycles += 1

    def verify(self, deployment: Deployment) -> int:
        return 0  # checked as each result returned, while the window is paused

    # ---------------------------------------------------------- operations
    def _run_op(self, deployment: Deployment, op: tuple, window: Window) -> OpRecord:
        kind = op[0]
        if kind == "ingest":
            return self._ingest(deployment, window)
        if kind == "cast":
            return self._cast(deployment, op[1], op[2], window)
        query, expect = self._query(op)
        self.texts.add(query)
        relation, latency, error = timed_op(kind, lambda: deployment.runtime.execute(query))
        if error is not None:
            return OpRecord("query", latency, error=type(error).__name__)
        with window.paused():
            ok = expect(deployment.state, relation_rows(relation))
        return OpRecord("query", latency, verdict(ok), units=len(relation.rows))

    def _ingest(self, deployment: Deployment, window: Window) -> OpRecord:
        """Append one batch of feed tuples, then read the feed back with SQL."""
        state: CrossIslandState = deployment.state
        streaming = deployment.mimic.streaming
        samples = self._values.shape[1]
        batch = []
        for k in range(state.fed, state.fed + FEED_BATCH):
            position = k % self._feed.size
            signal, sample = divmod(position, samples)
            batch.append((k / self._rate, (signal, sample, float(self._feed[position]))))
        query, expect = self._query(("feed",))
        append_s = 0.0

        def append_then_read():
            nonlocal append_s
            began = time.perf_counter()
            for timestamp, payload in batch:
                streaming.append("waveform_feed", timestamp, payload)
            append_s = time.perf_counter() - began
            return deployment.runtime.execute(query)

        relation, latency, error = timed_op("ingest", append_then_read)
        state.fed += FEED_BATCH
        for timestamp, payload in batch:
            state.retained.append((timestamp, payload[2]))
        horizon = state.retained[-1][0] - state.retention_s
        while state.retained and state.retained[0][0] < horizon:
            state.retained.popleft()
        if error is not None:
            failure = type(error).__name__
        else:
            with window.paused():
                failure = verdict(expect(state, relation_rows(relation)))
        return OpRecord("ingest", latency, failure, units=FEED_BATCH, units_s=append_s)

    def _cast(self, deployment: Deployment, source: str, target: str,
              window: Window) -> OpRecord:
        state: CrossIslandState = deployment.state
        state.casts += 1
        name = f"{source}_bench_cast_{state.casts}"
        bigdawg = deployment.mimic.bigdawg
        record, latency, error = timed_op(
            "cast", lambda: bigdawg.cast(source, target, method="binary", target_name=name)
        )
        if error is not None:
            return OpRecord("cast", latency, error=type(error).__name__)
        with window.paused():
            # Check what landed, then drop it: later operations must read the
            # same objects whatever number of casts ran before them.
            engine = bigdawg.engine(target)
            copy = engine.export_relation(name)
            if source == "labs":
                count, id_sum, value_sum = self._labs
                ok = (record.rows == count == len(copy.rows)
                      and sum(row["lab_id"] for row in copy.rows) == id_sum
                      and values_equal(sum(row["value"] for row in copy.rows), value_sum))
            else:
                ok = (record.rows == self._values.size == len(copy.rows)
                      and values_equal(sum(row["value"] for row in copy.rows),
                                       float(self._values.sum())))
            engine.drop_object(name)
            bigdawg.catalog.unregister_object(name)
        return OpRecord("cast", latency, verdict(ok), units=record.rows, units_s=latency)

    def _query(self, op: tuple):
        """The query text of one read operation and its result check."""
        kind = op[0]
        if kind == "feed":
            return (scoped("SELECT count(*) AS n, sum(value) AS total FROM waveform_feed"),
                    self._expect_feed)
        if kind == "shim":
            threshold = op[1]
            sql = (f"SELECT signal, count(*) AS n, avg(value) AS mean "
                   f"FROM CAST(waveform_history, relational) WHERE value > {threshold} "
                   f"GROUP BY signal")
            return scoped(sql), lambda state, rows: rows_equal(
                rows, self._expect_shim(threshold), ordered=False)
        if kind == "text":
            phrase, minimum = op[1], op[2]
            suffix = f" MIN {minimum}" if minimum else ""
            return (f'TEXT(SEARCH notes FOR "{phrase}"{suffix})',
                    lambda state, rows: rows_equal(rows, self._expect_text(phrase, minimum),
                                                   ordered=False))
        if kind == "d4m":
            return ("D4M(ASSOC notes DEGREE ROWS)",
                    lambda state, rows: rows_equal(rows, self._degrees, ordered=False))
        width = op[1]
        query = (f"ARRAY(aggregate(window(waveform_history, value, {width}, avg, sample), "
                 f"max(avg_value), min(avg_value)))")
        return query, lambda state, rows: rows_equal(
            rows, [self._expect_window(width)], ordered=True)

    # ------------------------------------------------------------ expectations
    def _expect_feed(self, state: CrossIslandState, rows) -> bool:
        count = len(state.retained)
        total = sum(value for _, value in state.retained) if count else None
        return rows_equal(rows, [(count, total)], ordered=True)

    def _expect_shim(self, threshold: float) -> list[tuple]:
        expected = []
        for signal, values in enumerate(self._values):
            chosen = values[values > threshold]
            if chosen.size:
                expected.append((signal, int(chosen.size), float(chosen.mean())))
        return expected

    def _expect_text(self, phrase: str, minimum: int | None) -> list[tuple]:
        postings = self._postings[phrase]
        if not minimum:
            return postings
        per_row = Counter(row for row, _, _ in postings)
        return [(row,) for row, n in per_row.items() if n >= minimum]

    def _expect_window(self, width: int) -> tuple[float, float]:
        """Trailing-window means along each signal, by direct convolution."""
        if width not in self._window_memo:
            samples = self._values.shape[1]
            counts = np.minimum(np.arange(1, samples + 1), width)
            means = np.stack([
                np.convolve(row, np.ones(width))[:samples] / counts for row in self._values
            ])
            self._window_memo[width] = (float(means.max()), float(means.min()))
        return self._window_memo[width]


WORKLOADS = {w.name: w for w in (OltpMixed, CohortAnalytics, CrossIsland)}
