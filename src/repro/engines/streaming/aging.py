"""Aging streaming data out of S-Store into the historical array store.

Section 3 of the paper: waveform data enters BigDAWG through S-Store, is
processed in real time, and "ultimately, the data ages out of S-Store and is
loaded into SciDB, for historical analysis".  The :class:`AgingPolicy` is the
piece that does that hand-off: it drains tuples evicted from a stream's
retention window and appends them to an array in the array engine, so
cross-system queries over hot + cold data see every tuple exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import SchemaError
from repro.common.types import DataType
from repro.engines.array.engine import ArrayEngine
from repro.engines.array.schema import ArraySchema, Attribute, Dimension
from repro.engines.array.storage import StoredArray
from repro.engines.streaming.streams import Stream, StreamTuple


@dataclass
class AgingPolicy:
    """Moves evicted stream tuples into a 2-D (series, sample) array.

    The stream's tuples must carry ``(series_id, sample_index, value)`` —
    the shape of the MIMIC waveform feed — where ``series_id`` selects the
    array row and ``sample_index`` the position along the time dimension.
    """

    stream: Stream
    array_engine: ArrayEngine
    array_name: str
    series_column: str = "signal_id"
    index_column: str = "sample_index"
    value_column: str = "value"
    max_series: int = 64
    max_samples: int = 500_000
    tuples_aged: int = 0
    _array: StoredArray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.stream.hold_evicted()

    def _ensure_array(self) -> StoredArray:
        if self._array is not None:
            return self._array
        if self.array_engine.has_object(self.array_name):
            self._array = self.array_engine.array(self.array_name)
            return self._array
        schema = ArraySchema(
            self.array_name,
            [
                Dimension("series", 0, self.max_series - 1, 1),
                Dimension("sample", 0, self.max_samples - 1, 10_000),
            ],
            [Attribute(self.value_column, DataType.FLOAT)],
        )
        self._array = self.array_engine.create_array(schema)
        return self._array

    def age_out(self) -> int:
        """Drain the stream's evicted tuples into the array. Returns tuples moved."""
        evicted = self.stream.drain_evicted()
        if not evicted:
            return 0
        array = self._ensure_array()
        series_idx = self.stream.schema.index_of(self.series_column)
        sample_idx = self.stream.schema.index_of(self.index_column)
        value_idx = self.stream.schema.index_of(self.value_column)
        buffer = array.buffer(self.value_column)
        present = array.present_mask
        moved = 0
        for item in evicted:
            series = int(item.values[series_idx])
            sample = int(item.values[sample_idx])
            if not (0 <= series < self.max_series and 0 <= sample < self.max_samples):
                raise SchemaError(
                    f"aged tuple (series={series}, sample={sample}) exceeds the array bounds"
                )
            buffer[series, sample] = float(item.values[value_idx])
            present[series, sample] = True
            moved += 1
        array._synopsis_dirty = True
        self.tuples_aged += moved
        return moved

    def hot_tuples(self, series_id: int) -> list[StreamTuple]:
        """Tuples for a series still inside the stream's retention window."""
        series_idx = self.stream.schema.index_of(self.series_column)
        return [t for t in self.stream.tuples() if int(t.values[series_idx]) == series_id]

    def cold_values(self, series_id: int) -> np.ndarray:
        """Values for a series already aged into the array (in sample order)."""
        array = self._ensure_array()
        row = array.buffer(self.value_column)[series_id]
        mask = array.present_mask[series_id]
        return row[mask]

    def combined_series(self, series_id: int) -> np.ndarray:
        """Hot + cold samples for one series, oldest first — the 'complete picture'."""
        sample_idx = self.stream.schema.index_of(self.index_column)
        value_idx = self.stream.schema.index_of(self.value_column)
        hot = sorted(
            ((int(t.values[sample_idx]), float(t.values[value_idx]))
             for t in self.hot_tuples(series_id)),
        )
        cold = self.cold_values(series_id)
        return np.concatenate([cold, np.array([v for _i, v in hot], dtype=float)])
