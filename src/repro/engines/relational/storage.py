"""Row storage for the relational engine.

A :class:`HeapTable` stores rows in insertion order keyed by a monotonically
increasing row id, with optional B+tree secondary indexes kept in sync on
insert, update and delete.  Deletes are tombstoned so row ids remain stable
for index entries and in-flight scans.

Sequential scans read a columnar **scan image** (:class:`ScanImage`) rather
than the row tuples: one read-only 1-D object ndarray per column, holding the
very Python objects the rows hold.  The image is built lazily, on the first
:meth:`HeapTable.scan_image` after a mutation, by filling one 2-D object grid
straight from the flattened row tuples (each column is a view of it), and is
stamped with the table's mutation version.  Every
``insert``/``update``/``delete``/``truncate`` moves the version and releases
the stale image at once, so at most one image per table is alive besides
those held by running scans.  A published image is never mutated (its arrays
are flagged read-only): a scan that captured it reads a consistent snapshot
however the table changes under it.

The runtime admits more than one operation per engine at a time, so every
write and every index access holds the table's lock: row-id allocation, the
primary-key check and the B+tree updates happen as one step.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.common.errors import ConstraintViolationError, ObjectNotFoundError, SchemaError
from repro.common.schema import Row, Schema
from repro.engines.relational.btree import BTreeIndex


class ScanImage:
    """A read-only columnar snapshot of a heap table's live rows."""

    __slots__ = ("version", "columns", "length")

    def __init__(self, version: int, columns: tuple[np.ndarray, ...], length: int) -> None:
        self.version = version
        self.columns = columns
        self.length = length

    @classmethod
    def build(cls, version: int, rows: list[tuple[Any, ...]], width: int) -> "ScanImage":
        length = len(rows)
        # One pass in C, no per-column tuples and no transient copy: the
        # grid is the only allocation the size of the table.
        grid = np.fromiter(
            itertools.chain.from_iterable(rows), dtype=object, count=length * width
        ).reshape(length, width)
        grid.flags.writeable = False
        return cls(version, tuple(grid[:, i] for i in range(width)), length)

    def slices(self, size: int) -> Iterator[tuple[int, list[np.ndarray]]]:
        """Yield ``(length, column views)`` for consecutive row ranges of at
        most ``size`` rows, in insertion order."""
        if size <= 0:
            raise ValueError(f"slice size must be positive, got {size}")
        return (
            (min(size, self.length - start), [column[start : start + size] for column in self.columns])
            for start in range(0, self.length, size)
        )


class HeapTable:
    """An append-ordered row store with secondary indexes."""

    def __init__(self, name: str, schema: Schema, primary_key: Sequence[str] = ()) -> None:
        self.name = name
        self.schema = schema
        self.primary_key = tuple(primary_key)
        self._rows: dict[int, tuple[Any, ...]] = {}
        self._lock = threading.Lock()
        self._next_row_id = 0
        self._version = 0
        self._versions = itertools.count(1)
        self._image: ScanImage | None = None
        #: Number of scan images built (one per read after a mutation).
        self.image_builds = 0
        self._indexes: dict[str, tuple[tuple[str, ...], BTreeIndex]] = {}
        if self.primary_key:
            for col in self.primary_key:
                if not schema.has_column(col):
                    raise SchemaError(f"primary key column {col!r} not in table {name!r}")
            self.create_index("__pk__", self.primary_key, unique=True)

    # ------------------------------------------------------------------ basic
    def __len__(self) -> int:
        return len(self._rows)

    @property
    def row_count(self) -> int:
        return len(self._rows)

    def insert(self, values: Sequence[Any]) -> int:
        """Validate, store and index one row. Returns the new row id."""
        validated = self.schema.validate_row(values)
        with self._lock:
            pk = self._indexes.get("__pk__")
            if pk is not None:
                key = self._key_for(validated, pk[0])
                if pk[1].search(key):
                    raise ConstraintViolationError(
                        f"duplicate primary key {key!r} in table {self.name!r}"
                    )
            row_id = self._next_row_id
            self._next_row_id += 1
            self._store(row_id, validated)
        return row_id

    def restore(self, row_id: int, values: tuple[Any, ...]) -> None:
        """Put a deleted row back under its original row id and re-index it
        (transaction rollback of a DELETE)."""
        with self._lock:
            self._store(row_id, values)

    def _store(self, row_id: int, values: tuple[Any, ...]) -> None:
        self._rows[row_id] = values
        for columns, index in self._indexes.values():
            index.insert(self._key_for(values, columns), row_id)
        self._mutated()

    def insert_many(self, rows: Sequence[Sequence[Any]]) -> list[int]:
        """Insert a batch of rows; returns their row ids."""
        return [self.insert(row) for row in rows]

    def get(self, row_id: int) -> tuple[Any, ...]:
        """Fetch one row by id."""
        if row_id not in self._rows:
            raise ObjectNotFoundError(f"row {row_id} not found in table {self.name!r}")
        return self._rows[row_id]

    def delete(self, row_id: int) -> None:
        """Delete one row by id, maintaining all indexes."""
        with self._lock:
            values = self.get(row_id)
            for columns, index in self._indexes.values():
                index.delete(self._key_for(values, columns), row_id)
            del self._rows[row_id]
            self._mutated()

    def update(self, row_id: int, new_values: Sequence[Any]) -> None:
        """Replace a row in place, maintaining all indexes."""
        validated = self.schema.validate_row(new_values)
        with self._lock:
            old = self.get(row_id)
            for columns, index in self._indexes.values():
                index.delete(self._key_for(old, columns), row_id)
                index.insert(self._key_for(validated, columns), row_id)
            self._rows[row_id] = validated
            self._mutated()

    def scan(self) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """Yield (row_id, values) for every live row in insertion order."""
        yield from self._rows.items()

    def scan_values(self) -> Iterator[tuple[Any, ...]]:
        """Yield raw value tuples for every live row in insertion order."""
        yield from self._rows.values()

    @property
    def version(self) -> int:
        """Mutation version: a fresh value after every insert, update, delete
        and truncate."""
        return self._version

    def _mutated(self) -> None:
        # Runs after the rows change, and drops the stale image now rather
        # than at the next scan.  An image built concurrently from older
        # rows carries an older stamp, so the next reader rebuilds it.
        # Versions come from a counter (``next`` is atomic), so concurrent
        # writers never store the same value twice and a stale stamp can
        # never become current again; no lock on the insert path.
        self._version = next(self._versions)
        self._image = None

    def scan_image(self) -> ScanImage:
        """The columnar image of the live rows at the current version.

        Built at most once per version; callers slice it and must not
        mutate it.  Capturing the returned object pins a snapshot.
        """
        image = self._image
        version = self._version
        if image is None or image.version != version:
            # ``list`` copies the row references in one step, so a writer
            # cannot resize the dict under the build.
            image = ScanImage.build(version, list(self._rows.values()), len(self.schema))
            self.image_builds += 1
            if self._version == version:
                self._image = image
        return image

    def rows(self) -> Iterator[Row]:
        """Yield :class:`Row` objects for every live row."""
        for values in self._rows.values():
            yield Row(self.schema, values)

    def truncate(self) -> None:
        """Remove all rows but keep schema and index definitions."""
        with self._lock:
            self._rows.clear()
            self._mutated()
            for name, (cols, _index) in self._indexes.items():
                self._indexes[name] = (cols, BTreeIndex(unique=(name == "__pk__")))

    # ---------------------------------------------------------------- indexes
    def create_index(
        self,
        index_name: str,
        columns: Sequence[str],
        unique: bool = False,
        if_not_exists: bool = False,
    ) -> None:
        """Create a B+tree index over the named columns and backfill it."""
        for col in columns:
            if not self.schema.has_column(col):
                raise SchemaError(f"index column {col!r} not in table {self.name!r}")
        with self._lock:
            if index_name in self._indexes:
                if if_not_exists:
                    return
                raise SchemaError(f"index {index_name!r} already exists on {self.name!r}")
            index = BTreeIndex(unique=unique)
            resolved = tuple(columns)
            for row_id, values in self._rows.items():
                index.insert(self._key_for(values, resolved), row_id)
            self._indexes[index_name] = (resolved, index)

    def drop_index(self, index_name: str) -> None:
        with self._lock:
            if index_name not in self._indexes:
                raise ObjectNotFoundError(
                    f"index {index_name!r} does not exist on {self.name!r}"
                )
            del self._indexes[index_name]

    def indexes(self) -> dict[str, tuple[str, ...]]:
        """Return {index name: indexed columns}."""
        return {name: cols for name, (cols, _idx) in self._indexes.items()}

    def find_index(self, column: str) -> tuple[str, BTreeIndex] | None:
        """Return an index whose leading column is ``column``, if one exists."""
        target = column.lower()
        for name, (columns, index) in self._indexes.items():
            if columns and columns[0].lower() == target:
                return name, index
        return None

    def index_lookup(self, index_name: str, key: Any) -> list[tuple[int, tuple[Any, ...]]]:
        """Equality lookup through an index; returns (row_id, values) pairs."""
        if not isinstance(key, tuple):
            key = (key,)
        with self._lock:
            _columns, index = self._indexes[index_name]
            return [
                (row_id, self._rows[row_id])
                for row_id in index.search(key)
                if row_id in self._rows
            ]

    def index_range(
        self,
        index_name: str,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> list[tuple[int, tuple[Any, ...]]]:
        """Range scan through an index; returns (row_id, values) pairs in key order."""
        low_key = (low,) if low is not None and not isinstance(low, tuple) else low
        high_key = (high,) if high is not None and not isinstance(high, tuple) else high
        with self._lock:
            _columns, index = self._indexes[index_name]
            return [
                (row_id, self._rows[row_id])
                for _key, row_id in index.range_scan(low_key, high_key, include_low, include_high)
                if row_id in self._rows
            ]

    def _key_for(self, values: Sequence[Any], columns: Sequence[str]) -> tuple[Any, ...]:
        return tuple(values[self.schema.index_of(col)] for col in columns)

    # ------------------------------------------------------------------ stats
    def statistics(self) -> dict[str, Any]:
        """Cheap table statistics used by the planner's cost model."""
        return {
            "row_count": len(self._rows),
            "column_count": len(self.schema),
            "indexes": list(self._indexes),
        }

    def apply_filter(self, predicate: Callable[[Row], bool]) -> list[int]:
        """Return row ids of rows matching a Python predicate (used by UPDATE/DELETE)."""
        matching = []
        for row_id, values in self._rows.items():
            if predicate(Row(self.schema, values)):
                matching.append(row_id)
        return matching

    def apply_filter_values(self, predicate: Callable[[Sequence[Any]], bool]) -> list[int]:
        """Like :meth:`apply_filter` but over raw value tuples.

        Pairs with :func:`repro.common.expressions.compile_predicate`: the
        caller compiles the WHERE clause once and no per-row :class:`Row`
        objects are built while matching.
        """
        return [row_id for row_id, values in self._rows.items() if predicate(values)]
