"""Chunked array storage backed by numpy, with per-chunk synopses.

Each attribute of an array is stored as one dense numpy array covering the
whole dimension space, plus a validity mask for empty cells.  Chunk metadata
(min / max / sum / count per chunk) is maintained lazily; it is what the
Searchlight exploration system and the ScalaR browser read as a *synopsis* —
a small structure that answers aggregate questions without touching the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from repro.common.errors import SchemaError, UnsupportedOperationError
from repro.common.schema import Column, ColumnarRelation, Schema, object_view
from repro.common.types import DataType, timestamp_to_epoch
from repro.engines.array.schema import ArraySchema


_NUMPY_DTYPES = {
    DataType.INTEGER: np.int64,
    DataType.FLOAT: np.float64,
    DataType.BOOLEAN: np.bool_,
    DataType.TEXT: object,
    DataType.TIMESTAMP: np.float64,
}


@dataclass
class ChunkSynopsis:
    """Aggregate summary of one chunk of one attribute."""

    chunk: tuple[int, ...]
    count: int
    minimum: float | None
    maximum: float | None
    total: float | None

    @property
    def mean(self) -> float | None:
        if not self.count or self.total is None:
            return None
        return self.total / self.count


class StoredArray:
    """One array's data: a dense numpy buffer per attribute plus an empty-cell mask."""

    def __init__(self, schema: ArraySchema) -> None:
        self.schema = schema
        self._buffers: dict[str, np.ndarray] = {}
        for attribute in schema.attributes:
            dtype = _NUMPY_DTYPES[attribute.dtype]
            if attribute.dtype is DataType.TEXT:
                self._buffers[attribute.name.lower()] = np.empty(schema.shape, dtype=object)
            else:
                self._buffers[attribute.name.lower()] = np.zeros(schema.shape, dtype=dtype)
        self._present = np.zeros(schema.shape, dtype=np.bool_)
        self._synopsis_dirty = True
        self._synopses: dict[str, list[ChunkSynopsis]] = {}

    # ------------------------------------------------------------------ access
    def buffer(self, attribute: str) -> np.ndarray:
        key = attribute.lower()
        if key not in self._buffers:
            raise SchemaError(f"array {self.schema.name!r} has no attribute {attribute!r}")
        return self._buffers[key]

    @property
    def present_mask(self) -> np.ndarray:
        return self._present

    @property
    def populated_cells(self) -> int:
        return int(self._present.sum())

    def write_cell(self, coordinates: tuple[int, ...], values: dict[str, Any]) -> None:
        """Write one cell's attribute values at the given dimension coordinates."""
        self.write_cells([np.array([c]) for c in coordinates],
                         {name: [value] for name, value in values.items()})

    def read_cell(self, coordinates: tuple[int, ...]) -> dict[str, Any] | None:
        """Read one cell; returns None for an empty cell."""
        indexes = self.schema.coordinates_to_indexes(coordinates)
        if not self._present[indexes]:
            return None
        return {a.name: self._buffers[a.name.lower()][indexes].item()
                if hasattr(self._buffers[a.name.lower()][indexes], "item")
                else self._buffers[a.name.lower()][indexes]
                for a in self.schema.attributes}

    def write_block(self, attribute: str, start: tuple[int, ...], block: np.ndarray) -> None:
        """Bulk write a dense block of one attribute starting at ``start`` coordinates."""
        indexes = self.schema.coordinates_to_indexes(start)
        slices = tuple(
            slice(idx, idx + size) for idx, size in zip(indexes, block.shape)
        )
        target = self.buffer(attribute)
        if any(s.stop > dim for s, dim in zip(slices, target.shape)):
            raise SchemaError("block extends beyond the array bounds")
        target[slices] = block
        self._present[slices] = True
        self._synopsis_dirty = True

    def read_block(self, attribute: str, low: tuple[int, ...], high: tuple[int, ...]) -> np.ndarray:
        """Read the dense block of one attribute between inclusive coordinate bounds."""
        low_idx = self.schema.coordinates_to_indexes(low)
        high_idx = self.schema.coordinates_to_indexes(high)
        slices = tuple(slice(lo, hi + 1) for lo, hi in zip(low_idx, high_idx))
        return self.buffer(attribute)[slices]

    def relation_schema(self) -> Schema:
        """The relational schema of a flattened array: the dimension
        coordinates, then the attributes."""
        columns = [Column(d.name, DataType.INTEGER) for d in self.schema.dimensions]
        columns += [Column(a.name, a.dtype) for a in self.schema.attributes]
        return Schema(columns)

    def relations(self, chunk_size: int | None = None) -> Iterator[ColumnarRelation]:
        """The populated cells as relations of at most ``chunk_size`` rows
        (one relation when None), in row-major order; nothing when the array
        is empty.

        The one flattener from array to relation: ``np.nonzero`` gives the
        coordinates and a boolean gather of each buffer the attributes, so
        no per-cell Python object is built before the final ``tolist``.
        ``tolist`` of an int64, float64 or bool array yields exactly ``int``,
        ``float`` or ``bool``; only object buffers and TIMESTAMP attributes
        (stored as epoch seconds) go through
        :meth:`Schema.validate_columns`, which coerces them to the column type
        (UTC datetimes for TIMESTAMP).
        """
        schema = self.relation_schema()
        present = self._present
        arrays = [
            indexes + dim.start
            for indexes, dim in zip(np.nonzero(present), self.schema.dimensions)
        ]
        arrays += [self._buffers[a.name.lower()][present] for a in self.schema.attributes]
        checked = [
            i for i, (array, col) in enumerate(zip(arrays, schema))
            if array.dtype == object or col.dtype is DataType.TIMESTAMP
        ]
        checked_schema = Schema([schema.columns[i] for i in checked])
        total = len(arrays[0])
        step = chunk_size or max(total, 1)
        for start in range(0, total, step):
            columns = [array[start : start + step].tolist() for array in arrays]
            validated = checked_schema.validate_columns([columns[i] for i in checked])
            for i, column in zip(checked, validated):
                columns[i] = column
            yield ColumnarRelation(schema, columns)

    def to_relation(self) -> ColumnarRelation:
        """The whole array flattened to one relation (see :meth:`relations`)."""
        for relation in self.relations():
            return relation
        schema = self.relation_schema()
        return ColumnarRelation(schema, [[] for _ in schema], 0)

    def write_cells(self, coordinates: Sequence[np.ndarray], values: dict[str, list[Any]]) -> None:
        """Bulk write: cell ``k`` sits at ``(coordinates[0][k], ...)`` and
        takes ``values[attribute][k]`` for each named attribute.

        When a coordinate repeats, the last cell written wins, as it would
        writing the cells one by one.  A TIMESTAMP attribute stores UTC epoch
        seconds (naive datetimes read as UTC).  An attribute that receives a
        NULL switches to an object buffer, so the NULL survives instead of
        turning into a number.
        """
        if len(coordinates) != self.schema.ndim:
            raise SchemaError(f"expected {self.schema.ndim} coordinates, got {len(coordinates)}")
        indexes = []
        for coords, dim in zip(coordinates, self.schema.dimensions):
            offsets = np.asarray(coords, dtype=np.int64) - dim.start
            if offsets.size and (offsets.min() < 0 or offsets.max() >= dim.length):
                raise SchemaError(
                    f"coordinate outside dimension {dim.name!r} [{dim.start}, {dim.end}]"
                )
            indexes.append(offsets)
        keep = None
        if indexes[0].size > 1:
            # numpy leaves the winner among repeated fancy indexes undefined,
            # so when a cell repeats keep only its last occurrence.
            flat = np.ravel_multi_index(indexes, self.schema.shape)
            seen = np.zeros(self.schema.cell_count, dtype=np.bool_)
            seen[flat] = True
            if np.count_nonzero(seen) < flat.size:
                _, first_reversed = np.unique(flat[::-1], return_index=True)
                keep = np.sort(flat.size - 1 - first_reversed)
                indexes = [offsets[keep] for offsets in indexes]
        target = tuple(indexes)
        for name, column in values.items():
            attribute = self.schema.attribute(name)
            if keep is not None:
                column = object_view(column)[keep].tolist()
            if attribute.dtype is DataType.TIMESTAMP:
                column = [None if v is None else timestamp_to_epoch(v) for v in column]
            key = attribute.name.lower()
            buffer = self._buffers[key]
            if buffer.dtype != object and None in column:
                buffer = self._buffers[key] = buffer.astype(object)
            buffer[target] = object_view(column) if buffer.dtype == object else column
        self._present[target] = True
        self._synopsis_dirty = True

    # ---------------------------------------------------------------- synopsis
    def synopsis(self, attribute: str) -> list[ChunkSynopsis]:
        """Per-chunk aggregate summaries for one attribute (rebuilt lazily)."""
        attr = self.schema.attribute(attribute)
        if attr.dtype is DataType.TEXT:
            raise UnsupportedOperationError("synopses are only defined for numeric attributes")
        if self._synopsis_dirty or attribute.lower() not in self._synopses:
            self._rebuild_synopsis(attribute)
        return self._synopses[attribute.lower()]

    def _rebuild_synopsis(self, attribute: str) -> None:
        buffer = self.buffer(attribute)
        synopses = []
        for chunk in self.schema.chunks():
            slices = self.schema.chunk_slices(chunk)
            mask = self._present[slices]
            values = buffer[slices][mask]
            if values.size:
                synopses.append(
                    ChunkSynopsis(
                        chunk=chunk,
                        count=int(values.size),
                        minimum=float(values.min()),
                        maximum=float(values.max()),
                        total=float(values.sum()),
                    )
                )
            else:
                synopses.append(ChunkSynopsis(chunk=chunk, count=0, minimum=None, maximum=None, total=None))
        self._synopses[attribute.lower()] = synopses
        self._synopsis_dirty = False

    # ------------------------------------------------------------------ stats
    def statistics(self) -> dict[str, Any]:
        return {
            "name": self.schema.name,
            "shape": self.schema.shape,
            "populated_cells": self.populated_cells,
            "attributes": [a.name for a in self.schema.attributes],
            "chunk_count": sum(1 for _ in self.schema.chunks()),
        }
