"""Data types shared by every island and engine.

The polystore federates engines with different data models, but the scalar
types flowing between them are a small common set.  Each engine maps its own
native representation onto these types when data crosses an island boundary
(a ``CAST``), which is what makes cross-engine movement well defined.
"""

from __future__ import annotations

import enum
import math
from datetime import datetime, timezone
from typing import Any

from repro.common.errors import TypeMismatchError


class DataType(enum.Enum):
    """Scalar types understood by every island."""

    INTEGER = "integer"
    FLOAT = "float"
    TEXT = "text"
    BOOLEAN = "boolean"
    TIMESTAMP = "timestamp"
    NULL = "null"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_TYPE_ALIASES = {
    "int": DataType.INTEGER,
    "integer": DataType.INTEGER,
    "int64": DataType.INTEGER,
    "bigint": DataType.INTEGER,
    "smallint": DataType.INTEGER,
    "float": DataType.FLOAT,
    "double": DataType.FLOAT,
    "real": DataType.FLOAT,
    "numeric": DataType.FLOAT,
    "decimal": DataType.FLOAT,
    "text": DataType.TEXT,
    "string": DataType.TEXT,
    "varchar": DataType.TEXT,
    "char": DataType.TEXT,
    "bool": DataType.BOOLEAN,
    "boolean": DataType.BOOLEAN,
    "timestamp": DataType.TIMESTAMP,
    "datetime": DataType.TIMESTAMP,
    "null": DataType.NULL,
}


def parse_type(name: str | DataType) -> DataType:
    """Resolve a type name (possibly an engine-specific alias) to a :class:`DataType`."""
    if isinstance(name, DataType):
        return name
    key = name.strip().lower()
    # Strip parameterised forms such as varchar(32).
    if "(" in key:
        key = key[: key.index("(")].strip()
    if key not in _TYPE_ALIASES:
        raise TypeMismatchError(f"unknown type name: {name!r}")
    return _TYPE_ALIASES[key]


def infer_type(value: Any) -> DataType:
    """Infer the :class:`DataType` of a Python value."""
    if value is None:
        return DataType.NULL
    if isinstance(value, bool):
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, datetime):
        return DataType.TIMESTAMP
    if isinstance(value, str):
        return DataType.TEXT
    raise TypeMismatchError(f"cannot infer a data type for {value!r}")


def coerce(value: Any, dtype: DataType) -> Any:
    """Coerce ``value`` to the Python representation of ``dtype``.

    ``None`` is always allowed (SQL-style nullable columns).  Raises
    :class:`TypeMismatchError` when a lossless conversion is impossible.
    """
    if value is None:
        return None
    try:
        if dtype is DataType.INTEGER:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, float):
                if not value.is_integer():
                    raise TypeMismatchError(f"cannot losslessly coerce {value!r} to integer")
                return int(value)
            return int(value)
        if dtype is DataType.FLOAT:
            if isinstance(value, bool):
                return float(value)
            result = float(value)
            if math.isnan(result):
                return result
            return result
        if dtype is DataType.TEXT:
            if isinstance(value, datetime):
                return value.isoformat()
            return str(value)
        if dtype is DataType.BOOLEAN:
            if isinstance(value, bool):
                return value
            if isinstance(value, (int, float)):
                return bool(value)
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("true", "t", "1", "yes"):
                    return True
                if lowered in ("false", "f", "0", "no"):
                    return False
            raise TypeMismatchError(f"cannot coerce {value!r} to boolean")
        if dtype is DataType.TIMESTAMP:
            if isinstance(value, datetime):
                return value
            if isinstance(value, (int, float)):
                return datetime.fromtimestamp(float(value), tz=timezone.utc)
            if isinstance(value, str):
                return datetime.fromisoformat(value)
            raise TypeMismatchError(f"cannot coerce {value!r} to timestamp")
        if dtype is DataType.NULL:
            return None
    except (ValueError, TypeError) as exc:
        raise TypeMismatchError(f"cannot coerce {value!r} to {dtype}") from exc
    raise TypeMismatchError(f"unhandled data type {dtype!r}")


def timestamp_to_epoch(value: Any) -> float:
    """Convert a timestamp value to UTC epoch seconds.

    Naive datetimes are treated as UTC wall-clock times; interpreting them in
    local time would make the instant depend on the host timezone.
    """
    if isinstance(value, datetime):
        if value.tzinfo is None:
            value = value.replace(tzinfo=timezone.utc)
        return value.timestamp()
    return float(value)


#: The Python type a coerced value of each data type has (``coerce`` returns
#: a value of exactly this type, or None).
PYTHON_TYPES: dict[DataType, type] = {
    DataType.INTEGER: int,
    DataType.FLOAT: float,
    DataType.TEXT: str,
    DataType.BOOLEAN: bool,
    DataType.TIMESTAMP: datetime,
    DataType.NULL: type(None),
}


def is_numeric(dtype: DataType) -> bool:
    """Return True if the type participates in arithmetic."""
    return dtype in (DataType.INTEGER, DataType.FLOAT, DataType.BOOLEAN)


def common_type(left: DataType, right: DataType) -> DataType:
    """Return the type that can represent values of both argument types.

    Used when unioning columns from different engines during a CAST and when
    typing arithmetic expressions.
    """
    if left == right:
        return left
    if DataType.NULL in (left, right):
        return right if left is DataType.NULL else left
    numeric_order = {DataType.BOOLEAN: 0, DataType.INTEGER: 1, DataType.FLOAT: 2}
    if left in numeric_order and right in numeric_order:
        return left if numeric_order[left] >= numeric_order[right] else right
    if DataType.TEXT in (left, right):
        return DataType.TEXT
    raise TypeMismatchError(f"no common type for {left} and {right}")
