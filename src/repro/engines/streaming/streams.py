"""Streams and windows represented as time-varying tables.

S-Store's core extension over H-Store is that streams and sliding windows are
first-class, *time-varying tables* (paper, Section 2.5).  A :class:`Stream`
is an append-only table of timestamped tuples with bounded retention; a
:class:`SlidingWindow` or :class:`TumblingWindow` is a view over the tail of a
stream that stored procedures read transactionally.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.common.errors import IngestionError, SchemaError
from repro.common.schema import Row, Schema


@dataclass(frozen=True)
class StreamTuple:
    """One timestamped tuple flowing through a stream."""

    timestamp: float
    values: tuple[Any, ...]

    def as_row(self, schema: Schema) -> Row:
        return Row(schema, self.values)


class Stream:
    """An append-only, time-varying table with bounded retention.

    Tuples must arrive in non-decreasing timestamp order (the ingestion module
    enforces ordering per feed).  Old tuples are evicted once the stream
    exceeds ``retention_seconds``, which is what drives aging into the
    historical array store.
    """

    def __init__(self, name: str, schema: Schema, retention_seconds: float = 60.0) -> None:
        if retention_seconds <= 0:
            raise SchemaError("retention must be positive")
        self.name = name
        self.schema = schema
        self.retention_seconds = retention_seconds
        self._tuples: deque[StreamTuple] = deque()
        # Evicted tuples are held only for an aging policy to drain; with
        # none attached (None here) they are dropped as they age out, so a
        # stream's memory stays bounded by its retention window.
        self._evicted: list[StreamTuple] | None = None
        self.total_appended = 0

    def __len__(self) -> int:
        return len(self._tuples)

    @property
    def latest_timestamp(self) -> float | None:
        return self._tuples[-1].timestamp if self._tuples else None

    @property
    def oldest_timestamp(self) -> float | None:
        return self._tuples[0].timestamp if self._tuples else None

    def append(self, timestamp: float, values: tuple[Any, ...] | list[Any]) -> StreamTuple:
        """Append one tuple; evicts anything older than the retention horizon."""
        if self._tuples and timestamp < self._tuples[-1].timestamp:
            raise IngestionError(
                f"out-of-order tuple: {timestamp} < {self._tuples[-1].timestamp} on stream {self.name!r}"
            )
        validated = self.schema.validate_row(list(values))
        item = StreamTuple(timestamp, validated)
        self._tuples.append(item)
        self.total_appended += 1
        self._evict(timestamp)
        return item

    def _evict(self, now: float) -> None:
        horizon = now - self.retention_seconds
        tuples, evicted = self._tuples, self._evicted
        while tuples and tuples[0].timestamp < horizon:
            item = tuples.popleft()
            if evicted is not None:
                evicted.append(item)

    def hold_evicted(self) -> None:
        """Keep tuples that age out from now on, for :meth:`drain_evicted`
        (an :class:`~repro.engines.streaming.aging.AgingPolicy` calls this
        when it attaches to the stream)."""
        if self._evicted is None:
            self._evicted = []

    def drain_evicted(self) -> list[StreamTuple]:
        """Return and clear tuples that have aged out (consumed by the aging
        policy); always empty while no policy holds them."""
        if self._evicted is None:
            return []
        evicted, self._evicted = self._evicted, []
        return evicted

    def tuples(self) -> Iterator[StreamTuple]:
        return iter(self._tuples)

    def since(self, timestamp: float) -> list[StreamTuple]:
        """Tuples with timestamp >= the given value (within retention)."""
        return [t for t in self._tuples if t.timestamp >= timestamp]

    def rows(self) -> Iterator[Row]:
        for item in self._tuples:
            yield item.as_row(self.schema)


class SlidingWindow:
    """A sliding window over a stream: the last ``size_seconds`` of tuples,
    advanced every ``slide_seconds``.
    """

    def __init__(self, stream: Stream, size_seconds: float, slide_seconds: float | None = None) -> None:
        if size_seconds <= 0:
            raise SchemaError("window size must be positive")
        self.stream = stream
        self.size_seconds = size_seconds
        self.slide_seconds = slide_seconds if slide_seconds is not None else size_seconds
        self._last_fire: float | None = None

    def contents(self, now: float | None = None) -> list[StreamTuple]:
        """Tuples inside the window as of ``now`` (default: stream's latest timestamp)."""
        reference = now if now is not None else self.stream.latest_timestamp
        if reference is None:
            return []
        low = reference - self.size_seconds
        return [t for t in self.stream.tuples() if low < t.timestamp <= reference]

    def should_fire(self, now: float) -> bool:
        """Whether the window's slide interval has elapsed since it last fired."""
        if self._last_fire is None:
            return True
        return now - self._last_fire >= self.slide_seconds

    def mark_fired(self, now: float) -> None:
        self._last_fire = now

    def aggregate(self, column: str, function: Callable[[list[float]], float],
                  now: float | None = None) -> float | None:
        """Apply an aggregate function to one column of the window contents."""
        index = self.stream.schema.index_of(column)
        values = [t.values[index] for t in self.contents(now) if t.values[index] is not None]
        if not values:
            return None
        return function(values)


class TumblingWindow(SlidingWindow):
    """A tumbling window: size == slide, so consecutive windows do not overlap."""

    def __init__(self, stream: Stream, size_seconds: float) -> None:
        super().__init__(stream, size_seconds, size_seconds)

    def contents(self, now: float | None = None) -> list[StreamTuple]:
        reference = now if now is not None else self.stream.latest_timestamp
        if reference is None:
            return []
        # Align to fixed, non-overlapping boundaries.
        window_index = int(reference // self.size_seconds)
        low = window_index * self.size_seconds
        high = low + self.size_seconds
        return [t for t in self.stream.tuples() if low <= t.timestamp < high]
