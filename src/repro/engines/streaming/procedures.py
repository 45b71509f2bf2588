"""Stored procedures and their transactional scheduler.

In S-Store all stream processing happens inside stored procedures executed as
serializable transactions (the H-Store inheritance).  A procedure is bound to
a stream; every batch of new tuples triggers one transaction that may read
windows, update state tables and emit tuples to downstream streams — forming
a dataflow graph of procedures with exactly-once, in-order semantics.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.cancellation import check_cancelled
from repro.common.errors import TransactionError
from repro.engines.streaming.streams import SlidingWindow, Stream, StreamTuple


@dataclass
class ProcedureContext:
    """What a stored procedure sees during one invocation."""

    transaction_id: int
    timestamp: float
    batch: list[StreamTuple]
    window: SlidingWindow | None
    state: dict[str, Any]
    emitted: list[tuple[str, float, tuple]] = field(default_factory=list)
    alerts: list[dict[str, Any]] = field(default_factory=list)

    def emit(self, stream_name: str, timestamp: float, values: tuple) -> None:
        """Emit a tuple to a downstream stream (applied atomically on commit)."""
        self.emitted.append((stream_name, timestamp, values))

    def alert(self, **payload: Any) -> None:
        """Raise an application alert (e.g. abnormal heart rhythm detected)."""
        payload.setdefault("timestamp", self.timestamp)
        payload.setdefault("transaction_id", self.transaction_id)
        self.alerts.append(payload)


#: A stored procedure body: receives the invocation context, mutates state / emits.
ProcedureBody = Callable[[ProcedureContext], None]


@dataclass
class StoredProcedure:
    """A named procedure bound to an input stream (and optionally a window over it)."""

    name: str
    input_stream: str
    body: ProcedureBody
    window: SlidingWindow | None = None
    batch_size: int = 1

    invocations: int = 0
    aborts: int = 0


@dataclass
class CommittedTransaction:
    """A record of one committed procedure execution, used for recovery."""

    transaction_id: int
    procedure: str
    timestamp: float
    batch_size: int
    alerts: int


class TransactionScheduler:
    """Serializes stored-procedure executions and applies their effects atomically.

    The scheduler owns the monotonically increasing transaction ids, invokes
    procedure bodies, and only applies emitted tuples / alerts / state changes
    when the body finishes without raising.  A raising body counts as an abort
    and leaves state untouched.
    """

    #: How many of the most recent commits :attr:`committed` keeps.
    COMMITTED_LOG = 1024

    def __init__(self) -> None:
        self._txn_counter = itertools.count(1)
        #: The most recent commits, oldest first (bounded, so a long-running
        #: feed does not keep one record per invocation ever made).
        self.committed: deque[CommittedTransaction] = deque(maxlen=self.COMMITTED_LOG)
        #: Every commit so far, including those the log no longer holds.
        self.committed_count = 0
        self.aborted = 0

    def execute(
        self,
        procedure: StoredProcedure,
        batch: list[StreamTuple],
        timestamp: float,
        state: dict[str, Any],
        downstream: dict[str, Stream],
    ) -> ProcedureContext:
        """Run one procedure invocation as a transaction; returns the context."""
        check_cancelled()
        txn_id = next(self._txn_counter)
        # The body works on a copy of the state so an abort leaves it untouched.
        scratch = dict(state)
        context = ProcedureContext(
            transaction_id=txn_id,
            timestamp=timestamp,
            batch=batch,
            window=procedure.window,
            state=scratch,
        )
        procedure.invocations += 1
        try:
            procedure.body(context)
        except Exception as exc:  # noqa: BLE001 - any body failure aborts the txn
            procedure.aborts += 1
            self.aborted += 1
            raise TransactionError(
                f"stored procedure {procedure.name!r} aborted: {exc}"
            ) from exc
        # Commit: apply state changes and emitted tuples in order.
        state.clear()
        state.update(scratch)
        for stream_name, ts, values in context.emitted:
            if stream_name not in downstream:
                raise TransactionError(
                    f"procedure {procedure.name!r} emitted to unknown stream {stream_name!r}"
                )
            downstream[stream_name].append(ts, values)
        self.committed.append(
            CommittedTransaction(
                transaction_id=txn_id,
                procedure=procedure.name,
                timestamp=timestamp,
                batch_size=len(batch),
                alerts=len(context.alerts),
            )
        )
        self.committed_count += 1
        return context
