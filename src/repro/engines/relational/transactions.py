"""A minimal transaction layer for the relational engine.

Transactions collect undo records for every insert, update and delete, apply
changes immediately (no isolation levels beyond a single-writer lock), and can
roll the table back on abort.  This is intentionally lightweight — what the
polystore needs is the *ability* to group multi-statement writes, not a full
MVCC implementation — but the API (begin/commit/rollback, context manager)
matches what an application written against PostgreSQL would expect.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.common.errors import TransactionError

if TYPE_CHECKING:  # pragma: no cover
    from repro.engines.relational.engine import RelationalEngine


@dataclass
class _UndoRecord:
    """One reversible change."""

    kind: str  # insert | delete | update
    table: str
    row_id: int
    before: tuple[Any, ...] | None = None


@dataclass
class Transaction:
    """A unit of work against one relational engine."""

    engine: "RelationalEngine"
    txn_id: int
    active: bool = True
    _undo: list[_UndoRecord] = field(default_factory=list)

    def record_insert(self, table: str, row_id: int) -> None:
        self._undo.append(_UndoRecord("insert", table, row_id))

    def record_delete(self, table: str, row_id: int, before: tuple[Any, ...]) -> None:
        self._undo.append(_UndoRecord("delete", table, row_id, before))

    def record_update(self, table: str, row_id: int, before: tuple[Any, ...]) -> None:
        self._undo.append(_UndoRecord("update", table, row_id, before))

    def commit(self) -> None:
        """Make the transaction's changes permanent."""
        self._require_active()
        self._undo.clear()
        self.active = False
        self.engine._finish_transaction(self)

    def rollback(self) -> None:
        """Undo every change made inside the transaction, newest first."""
        self._require_active()
        for record in reversed(self._undo):
            table = self.engine.table(record.table)
            if record.kind == "insert":
                if record.row_id in table._rows:
                    table.delete(record.row_id)
            elif record.kind == "delete":
                # Same row id, so an earlier insert's undo still finds it.
                table.restore(record.row_id, record.before)
            elif record.kind == "update":
                table.update(record.row_id, record.before)
        if self._undo:
            # Undoing visibly mutated table state; results cached while the
            # transaction's changes were live must be invalidated.
            self.engine.bump_write_version()
        self._undo.clear()
        self.active = False
        self.engine._finish_transaction(self)

    def _require_active(self) -> None:
        if not self.active:
            raise TransactionError(f"transaction {self.txn_id} is no longer active")

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self.active:
            return False
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        return False


class TransactionManager:
    """Hands out transactions and enforces single-writer semantics."""

    def __init__(self, engine: "RelationalEngine") -> None:
        self._engine = engine
        self._lock = threading.Lock()
        self._next_id = 1
        self._active: Transaction | None = None

    def begin(self) -> Transaction:
        with self._lock:
            if self._active is not None and self._active.active:
                raise TransactionError("another transaction is already active")
            txn = Transaction(self._engine, self._next_id)
            self._next_id += 1
            self._active = txn
            return txn

    @property
    def active_transaction(self) -> Transaction | None:
        if self._active is not None and self._active.active:
            return self._active
        return None

    def finish(self, txn: Transaction) -> None:
        with self._lock:
            if self._active is txn:
                self._active = None
