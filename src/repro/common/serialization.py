"""Serialization codecs used by the CAST operator.

The paper contrasts naive *file-based import/export* between engines with a
*binary, parallel* access path (Section 2.1).  We model both:

* :class:`CsvCodec` — the file-based path: every value is rendered to text,
  written line by line, then re-parsed and re-coerced on the receiving side.
* :class:`BinaryCodec` — the direct path: every column is packed with
  ``struct`` into a compact binary frame that the receiver decodes without
  text parsing.  There is one frame layout, and it is *columnar*: per column
  a null-flag vector and then the non-null values, contiguous (a length
  vector plus one UTF-8 blob for TEXT).  A frame is a handful of bulk packs,
  and it decodes straight into columns, never into rows.

Both codecs also support the chunked CAST pipeline through
``encode_chunks`` / ``decode_chunks``: each chunk becomes one independent,
self-describing frame, so a streaming CAST never holds more than a single
chunk's payload in memory.

Timestamps are normalized to UTC on encode: naive datetimes are interpreted
as UTC wall-clock times (not local time), so a value decodes to the same
instant regardless of the host timezone.

Both codecs round-trip a :class:`~repro.common.schema.Relation`, so the CAST
benchmarks compare like for like.
"""

from __future__ import annotations

import io
import itertools
import struct
from datetime import datetime, timezone
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.common.errors import CastError
from repro.common.schema import ColumnarRelation, Relation, Schema, object_view
from repro.common.types import DataType, timestamp_to_epoch


class ChunkedCodecMixin:
    """Frame-per-chunk streaming on top of a codec's ``encode``/``decode``.

    Each chunk becomes one independent, self-describing payload (CSV frames
    carry their own header line; binary frames their own type tags), so any
    frame decodes on its own and a consumer never holds more than one frame.
    """

    def encode_chunks(self, chunks: Iterable[Relation]) -> Iterator[bytes]:
        """Encode a stream of chunks as independent payloads, one at a time."""
        for chunk in chunks:
            yield self.encode(chunk)

    def decode_chunks(self, payloads: Iterable[bytes], schema: Schema) -> Iterator[Relation]:
        """Decode a stream of independent payloads back into relation chunks."""
        for payload in payloads:
            yield self.decode(payload, schema)


class CsvCodec(ChunkedCodecMixin):
    """Text (CSV-like) encoding of a relation, modelling file-based export/import."""

    DELIMITER = ","
    NULL_TOKEN = r"\N"

    # Kept in sync with the boolean tokens repro.common.types.coerce accepts,
    # so a value that imports through validate_row also parses from CSV.
    _TRUE_TOKENS = frozenset(("true", "t", "1", "yes"))
    _FALSE_TOKENS = frozenset(("false", "f", "0", "no"))

    def encode(self, relation: Relation) -> bytes:
        """Render a relation to delimited text, one row per line."""
        buffer = io.StringIO()
        buffer.write(self.DELIMITER.join(relation.schema.names))
        buffer.write("\n")
        for row in relation:
            fields = []
            for value in row.values:
                fields.append(self._render(value))
            buffer.write(self.DELIMITER.join(fields))
            buffer.write("\n")
        return buffer.getvalue().encode("utf-8")

    def decode(self, payload: bytes, schema: Schema) -> Relation:
        """Parse delimited text back into a relation, coercing each field.

        Quoted fields may contain the delimiter, doubled quotes and embedded
        newlines, exactly as they are rendered by :meth:`encode`.
        """
        text = payload.decode("utf-8")
        records = self._split_records(text)
        if not records:
            return Relation(schema)
        relation = Relation(schema)
        single_text_column = len(schema) == 1 and schema.columns[0].dtype is DataType.TEXT
        for fields in records[1:]:
            if fields == [""] and not single_text_column:
                # A blank line cannot be a row — except for a single-TEXT-column
                # schema, where it is a legitimate empty-string value.
                continue
            if len(fields) != len(schema):
                raise CastError(
                    f"CSV row has {len(fields)} fields but schema expects {len(schema)}"
                )
            values = [self._parse(field, col.dtype) for field, col in zip(fields, schema)]
            relation.append(values)
        return relation

    def _split_records(self, text: str) -> list[list[str]]:
        """Split the full payload into records, honouring quoted newlines."""
        records: list[list[str]] = []
        fields: list[str] = []
        current = io.StringIO()
        in_quotes = False
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if in_quotes:
                if ch == '"':
                    if i + 1 < n and text[i + 1] == '"':
                        current.write('"')
                        i += 1
                    else:
                        in_quotes = False
                else:
                    current.write(ch)
            elif ch == '"':
                in_quotes = True
            elif ch == self.DELIMITER:
                fields.append(current.getvalue())
                current = io.StringIO()
            elif ch == "\n":
                fields.append(current.getvalue())
                current = io.StringIO()
                records.append(fields)
                fields = []
            elif ch != "\r":
                current.write(ch)
            i += 1
        trailing = current.getvalue()
        if trailing or fields:
            fields.append(trailing)
            records.append(fields)
        return records

    def _render(self, value: Any) -> str:
        if value is None:
            return self.NULL_TOKEN
        if isinstance(value, datetime):
            return value.isoformat()
        if isinstance(value, str):
            if self.DELIMITER in value or '"' in value or "\n" in value:
                return '"' + value.replace('"', '""') + '"'
            return value
        return str(value)

    def _split(self, line: str) -> list[str]:
        fields: list[str] = []
        current = io.StringIO()
        in_quotes = False
        i = 0
        while i < len(line):
            ch = line[i]
            if in_quotes:
                if ch == '"':
                    if i + 1 < len(line) and line[i + 1] == '"':
                        current.write('"')
                        i += 1
                    else:
                        in_quotes = False
                else:
                    current.write(ch)
            else:
                if ch == '"':
                    in_quotes = True
                elif ch == self.DELIMITER:
                    fields.append(current.getvalue())
                    current = io.StringIO()
                else:
                    current.write(ch)
            i += 1
        fields.append(current.getvalue())
        return fields

    def _parse(self, field: str, dtype: DataType) -> Any:
        if field == self.NULL_TOKEN:
            return None
        try:
            if dtype is DataType.INTEGER:
                return int(field)
            if dtype is DataType.FLOAT:
                return float(field)
            if dtype is DataType.BOOLEAN:
                token = field.strip().lower()
                if token in self._TRUE_TOKENS:
                    return True
                if token in self._FALSE_TOKENS:
                    return False
                raise CastError(f"cannot parse {field!r} as {dtype}")
            if dtype is DataType.TIMESTAMP:
                parsed = datetime.fromisoformat(field)
                if parsed.tzinfo is None:
                    parsed = parsed.replace(tzinfo=timezone.utc)
                return parsed
            return field
        except ValueError as exc:
            raise CastError(f"cannot parse {field!r} as {dtype}") from exc


class BinaryCodec(ChunkedCodecMixin):
    """Compact binary encoding of a relation, modelling a direct binary CAST path.

    A frame is one header and then the columns, one after another::

        [u8 layout][u32 row_count][u32 column_count]
        for each column: [u8 type_tag]
        for each column:
            [u8 null flag x row_count]
            then the non-null values, packed contiguously:
            INTEGER  -> i64 each
            FLOAT    -> f64 each
            BOOLEAN  -> u8 each
            TIMESTAMP-> f64 each (epoch seconds, UTC; naive datetimes read as UTC)
            TEXT     -> u32 UTF-8 byte length each, then all the UTF-8 bytes
                        as one blob
            NULL     -> nothing

    Every type is packed column-wise, so encoding and decoding are a few
    bulk operations per column instead of a loop over values, and decode
    hands back a :class:`~repro.common.schema.ColumnarRelation`: no row
    object is built between the sender's columns and the receiver's.
    """

    #: The layout byte every frame carries; a frame with any other value is
    #: rejected.
    LAYOUT_COLUMNAR = 1

    _TYPE_TAGS = {
        DataType.INTEGER: 1,
        DataType.FLOAT: 2,
        DataType.TEXT: 3,
        DataType.BOOLEAN: 4,
        DataType.TIMESTAMP: 5,
        DataType.NULL: 6,
    }
    _TAG_TYPES = {v: k for k, v in _TYPE_TAGS.items()}

    #: struct format character of each fixed-width type.
    _FORMATS = {
        DataType.INTEGER: "q",
        DataType.FLOAT: "d",
        DataType.BOOLEAN: "B",
        DataType.TIMESTAMP: "d",
    }

    #: What each fixed-width value is packed as.
    _TO_PACKED = {
        DataType.INTEGER: int,
        DataType.FLOAT: float,
        DataType.BOOLEAN: bool,
        DataType.TIMESTAMP: timestamp_to_epoch,
    }

    def encode(self, relation: Relation) -> bytes:
        schema = relation.schema
        out = io.BytesIO()
        out.write(struct.pack("<BII", self.LAYOUT_COLUMNAR, len(relation), len(schema)))
        out.write(bytes(self._TYPE_TAGS[col.dtype] for col in schema))
        for index, col in enumerate(schema):
            # column_values hands back the stored column directly when the
            # relation is columnar-backed (a chunk exported by the relational
            # or array engine), so no row object is built on the way out.
            column = relation.column_values(index)
            if None in column:
                out.write(bytes(1 if value is None else 0 for value in column))
                values = [value for value in column if value is not None]
            else:
                out.write(bytes(len(column)))
                values = column
            if col.dtype is DataType.TEXT:
                self._encode_text(out, values)
            elif col.dtype is not DataType.NULL:
                fmt = f"<{len(values)}{self._FORMATS[col.dtype]}"
                out.write(struct.pack(fmt, *map(self._TO_PACKED[col.dtype], values)))
        return out.getvalue()

    def decode(self, payload: bytes, schema: Schema) -> Relation:
        view = memoryview(payload)
        layout, row_count, col_count = struct.unpack_from("<BII", view, 0)
        if layout != self.LAYOUT_COLUMNAR:
            raise CastError(f"unknown binary frame layout {layout}")
        if col_count != len(schema):
            raise CastError(
                f"binary frame has {col_count} columns but schema expects {len(schema)}"
            )
        offset = 9
        tags = [self._TAG_TYPES[tag] for tag in view[offset : offset + col_count]]
        offset += col_count
        columns: list[list[Any]] = []
        for dtype in tags:
            flags = bytes(view[offset : offset + row_count])
            offset += row_count
            non_null = row_count - flags.count(1)
            if dtype is DataType.TEXT:
                values, offset = self._decode_text(view, offset, non_null)
            elif dtype is DataType.NULL:
                values = []
            else:
                fmt = f"<{non_null}{self._FORMATS[dtype]}"
                values = struct.unpack_from(fmt, view, offset)
                offset += struct.calcsize(fmt)
                if dtype is DataType.TIMESTAMP:
                    values = [datetime.fromtimestamp(v, tz=timezone.utc) for v in values]
                elif dtype is DataType.BOOLEAN:
                    values = list(map(bool, values))
            columns.append(self._scatter(values, flags, non_null))
        if tags != schema.types:
            # The frame was written for other column types: coerce, with the
            # same checks a row-by-row append would run.
            columns = schema.validate_columns(columns)
        return ColumnarRelation(schema, columns, row_count)

    @staticmethod
    def _scatter(values: Sequence[Any], flags: bytes, non_null: int) -> list[Any]:
        """Spread a column's non-null values over its rows, None elsewhere."""
        if non_null == len(flags):
            return list(values)
        column = np.full(len(flags), None, dtype=object)
        column[np.frombuffer(flags, dtype=np.uint8) == 0] = object_view(values)
        return column.tolist()

    @staticmethod
    def _encode_text(out: io.BytesIO, values: Sequence[str]) -> None:
        joined = "".join(values)
        if joined.isascii():
            # One character per byte: the lengths are the string lengths
            # and the blob is the joined text.
            lengths: Iterable[int] = map(len, values)
            blob = joined.encode("ascii")
        else:
            encoded = [value.encode("utf-8") for value in values]
            lengths = map(len, encoded)
            blob = b"".join(encoded)
        out.write(struct.pack(f"<{len(values)}I", *lengths))
        out.write(blob)

    @staticmethod
    def _decode_text(view: memoryview, offset: int, count: int) -> tuple[list[str], int]:
        lengths = struct.unpack_from(f"<{count}I", view, offset)
        offset += 4 * count
        ends = list(itertools.accumulate(lengths))
        size = ends[-1] if ends else 0
        blob = bytes(view[offset : offset + size])
        starts = [0, *ends[:-1]]
        if blob.isascii():
            text = blob.decode("ascii")
            values = [text[a:b] for a, b in zip(starts, ends)]
        else:
            values = [blob[a:b].decode("utf-8") for a, b in zip(starts, ends)]
        return values, offset + size
