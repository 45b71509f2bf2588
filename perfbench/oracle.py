"""An independent oracle: the generated MIMIC tables loaded into stdlib ``sqlite3``.

The polystore's relational engine is checked against SQLite, which shares no
code with it.  Results are compared after a small, documented normalization:

* numbers (int, float, bool) compare as floats within a relative tolerance of
  ``1e-9`` — aggregates sum in different orders in the two engines, so the
  last bits of an ``avg`` may differ;
* row order is ignored unless the query has an ``ORDER BY`` (the caller says
  so); unordered rows are sorted with NULLs first and floats rounded to six
  significant digits for the sort key only;
* booleans are stored by SQLite as 0/1 and compare as numbers.
"""

from __future__ import annotations

import math
import sqlite3
from typing import Any, Iterable, Sequence

REL_TOLERANCE = 1e-9

_TABLES = {
    "patients": ("patient_id INTEGER PRIMARY KEY, age INTEGER, sex TEXT, race TEXT",
                 lambda p: (p.patient_id, p.age, p.sex, p.race)),
    "admissions": ("admission_id INTEGER PRIMARY KEY, patient_id INTEGER, admission_type TEXT, "
                   "stay_days REAL, severity REAL, outcome TEXT",
                   lambda a: (a.admission_id, a.patient_id, a.admission_type, a.stay_days,
                              a.severity, a.outcome)),
    "prescriptions": ("prescription_id INTEGER PRIMARY KEY, admission_id INTEGER, "
                      "patient_id INTEGER, drug TEXT, dose_mg REAL",
                      lambda p: (p.prescription_id, p.admission_id, p.patient_id, p.drug,
                                 p.dose_mg)),
    "labs": ("lab_id INTEGER PRIMARY KEY, admission_id INTEGER, patient_id INTEGER, "
             "test TEXT, value REAL, abnormal INTEGER",
             lambda l: (l.lab_id, l.admission_id, l.patient_id, l.test, l.value,
                        int(l.abnormal))),
}

_INDEXES = (
    "CREATE INDEX idx_adm_patient ON admissions(patient_id)",
    "CREATE INDEX idx_rx_admission ON prescriptions(admission_id)",
    "CREATE INDEX idx_rx_drug ON prescriptions(drug)",
    "CREATE INDEX idx_labs_test ON labs(test)",
)


class SqliteOracle:
    """The four relational MIMIC tables in an in-memory SQLite database."""

    def __init__(self, dataset) -> None:
        self.db = sqlite3.connect(":memory:", check_same_thread=False)
        for table, (columns, to_row) in _TABLES.items():
            self.db.execute(f"CREATE TABLE {table} ({columns})")
            placeholders = ", ".join("?" * (columns.count(",") + 1))
            self.db.executemany(
                f"INSERT INTO {table} VALUES ({placeholders})",
                (to_row(item) for item in getattr(dataset, table)),
            )
        for statement in _INDEXES:
            self.db.execute(statement)
        self.db.commit()
        self._memo: dict[str, list[tuple]] = {}

    def query(self, sql: str) -> list[tuple]:
        """Rows of a read-only query; memoized, since the checked tables are
        only written inside :meth:`scratch_state` transactions."""
        rows = self._memo.get(sql)
        if rows is None:
            rows = self._memo[sql] = self.db.execute(sql).fetchall()
        return rows

    def scratch_state(self, statements: Iterable[str], probes: Sequence[str]) -> list[list[tuple]]:
        """Apply ``statements`` in a transaction, read ``probes``, roll back."""
        try:
            for statement in statements:
                self.db.execute(statement)
            return [self.db.execute(probe).fetchall() for probe in probes]
        finally:
            self.db.rollback()

    def close(self) -> None:
        self.db.close()


def relation_rows(relation) -> list[tuple]:
    """A polystore :class:`Relation` as plain tuples, in column order."""
    names = relation.schema.names
    return [tuple(row[name] for name in names) for row in relation.rows]


def _sort_key(row: tuple) -> tuple:
    key = []
    for value in row:
        if value is None:
            key.append((0, 0.0, ""))
        elif isinstance(value, (bool, int, float)):
            key.append((1, float(f"{float(value):.6g}"), ""))
        else:
            key.append((2, 0.0, str(value)))
    return tuple(key)


def values_equal(left: Any, right: Any) -> bool:
    if left is None or right is None:
        return left is None and right is None
    numeric = (bool, int, float)
    if isinstance(left, numeric) and isinstance(right, numeric):
        a, b = float(left), float(right)
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= REL_TOLERANCE * max(1.0, abs(a), abs(b))
    return left == right


def rows_equal(actual: Sequence[tuple], expected: Sequence[tuple], ordered: bool) -> bool:
    """Compare two result sets under the normalization in the module docstring."""
    if len(actual) != len(expected):
        return False
    if not ordered:
        actual = sorted(actual, key=_sort_key)
        expected = sorted(expected, key=_sort_key)
    for left, right in zip(actual, expected):
        if len(left) != len(right):
            return False
        if not all(values_equal(a, b) for a, b in zip(left, right)):
            return False
    return True
