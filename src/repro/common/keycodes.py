"""Dense int64 key codes for vectorized joins and grouped aggregation.

The batch executor's joins and group-bys both reduce to the same primitive:
map one-or-many key columns to a single dense ``int64`` code per row so that
"same key" becomes "same integer" and the rest of the operator is numpy
index arithmetic (``np.bincount``, ``np.take``, ``np.repeat``) instead of
per-row Python tuples and dict probes.

NULL-sentinel contract
----------------------
* Inside a per-column encoding, code ``0`` is **reserved for NULL**; real
  values are assigned codes ``1..k``.  Combining columns with a mixed-radix
  step therefore keeps NULL distinct from every real value automatically.
* In the public results, :data:`NULL_CODE` (``-1``) marks rows whose key
  contains a NULL **in join position**: :meth:`JoinKeyTable.build_codes`
  and :meth:`JoinKeyTable.probe` return ``-1`` for NULL (or unseen) keys,
  because an SQL equi-join never matches on NULL.
* :func:`encode_group_keys` instead treats NULL as a *regular grouping
  value* (SQL GROUP BY puts all-NULL keys in one group), so its codes are
  always ``>= 0``; the per-row NULL information is preserved in
  :attr:`GroupCodes.null_rows`.

Dtype specialization
--------------------
INTEGER/FLOAT/BOOLEAN columns are factorized with ``np.unique`` over a
fixed-width numpy array (NULLs masked out first).  Everything else — TEXT,
TIMESTAMP, out-of-int64-range integers, and mixed-type column pairs — uses
a stable insertion-ordered Python dict, which preserves the row path's
``==``/``hash`` equality semantics exactly (``1 == 1.0``, ``True == 1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.common.types import DataType

#: Public sentinel: the code of a row whose key must not participate in a
#: join (NULL key on either side, or a probe key absent from the build side).
NULL_CODE = -1

#: numpy dtype per scalar type for the fast factorization path.
_CODE_DTYPES = {
    DataType.INTEGER: np.int64,
    DataType.FLOAT: np.float64,
    DataType.BOOLEAN: np.bool_,
}

#: Mixed-radix combination must stay inside int64; re-densify before this.
_RADIX_LIMIT = np.int64(2) ** 62


def _null_mask(values: Sequence[Any]) -> np.ndarray:
    return np.fromiter((v is None for v in values), np.bool_, count=len(values))


def _filled_array(values: Sequence[Any], dtype: Any) -> np.ndarray:
    """Pack a value list into a numpy array, substituting 0 at NULLs."""
    return np.fromiter(
        (0 if v is None else v for v in values), dtype, count=len(values)
    )


class _NumericColumnCodes:
    """Per-column factorization over a fixed-width numpy dtype."""

    def __init__(self, values: Sequence[Any], dtype: Any) -> None:
        nulls = _null_mask(values)
        filled = _filled_array(values, dtype)  # may raise OverflowError
        self._dtype = dtype
        if nulls.any():
            uniq, inverse = np.unique(filled[~nulls], return_inverse=True)
            codes = np.zeros(len(values), dtype=np.int64)
            codes[~nulls] = inverse.astype(np.int64) + 1
        else:
            uniq, inverse = np.unique(filled, return_inverse=True)
            codes = inverse.astype(np.int64) + 1
        self.uniques = uniq
        self.codes = codes
        self.radix = len(uniq) + 1

    def transform(self, values: Sequence[Any]) -> np.ndarray:
        """Codes for probe-side values against this column's dictionary.

        Unseen values and NULLs map to 0 (the reserved NULL slot), which the
        caller treats as non-matching.
        """
        uniq = self.uniques
        if len(uniq) == 0:
            return np.zeros(len(values), dtype=np.int64)
        try:
            nulls = _null_mask(values)
            filled = _filled_array(values, self._dtype)
        except (OverflowError, TypeError, ValueError):
            return self._transform_one_by_one(values)
        idx = np.searchsorted(uniq, filled)
        clipped = np.minimum(idx, len(uniq) - 1)
        found = (~nulls) & (idx < len(uniq)) & (uniq[clipped] == filled)
        return np.where(found, clipped + 1, 0).astype(np.int64)

    def _transform_one_by_one(self, values: Sequence[Any]) -> np.ndarray:
        """Probe values that will not pack into the build dtype (e.g. Python
        ints beyond int64): a misfit value can never equal an in-range build
        key, so it maps to 0; the remaining values probe individually."""
        uniq = self.uniques
        out = np.zeros(len(values), dtype=np.int64)
        for i, value in enumerate(values):
            if value is None:
                continue
            try:
                packed = np.array([value], dtype=self._dtype)[0]
            except (OverflowError, TypeError, ValueError):
                continue
            idx = int(np.searchsorted(uniq, packed))
            if idx < len(uniq) and uniq[idx] == packed:
                out[i] = idx + 1
        return out


class _ObjectColumnCodes:
    """Insertion-ordered dict factorization: the stable fallback for object
    columns, preserving Python ``==``/``hash`` equality across types."""

    def __init__(self, values: Sequence[Any]) -> None:
        mapping: dict[Any, int] = {}
        setdefault = mapping.setdefault
        # fromiter writes int64 slots directly — no interim list, no
        # per-element ndarray __setitem__.
        codes = np.fromiter(
            (0 if v is None else setdefault(v, len(mapping) + 1) for v in values),
            np.int64,
            count=len(values),
        )
        self._mapping = mapping
        self.codes = codes
        self.radix = len(mapping) + 1

    def transform(self, values: Sequence[Any]) -> np.ndarray:
        get = self._mapping.get
        return np.fromiter(
            (0 if v is None else get(v, 0) for v in values),
            np.int64,
            count=len(values),
        )


def _encode_column(values: Sequence[Any], dtype: DataType | None):
    """Factorize one key column; numpy-specialized when the dtype allows."""
    np_dtype = _CODE_DTYPES.get(dtype) if dtype is not None else None
    if np_dtype is not None:
        try:
            return _NumericColumnCodes(values, np_dtype)
        except (OverflowError, TypeError, ValueError):
            pass  # e.g. Python ints beyond int64: fall through to the dict
    return _ObjectColumnCodes(values)


def _combine(column_codes: list) -> tuple[np.ndarray, np.ndarray]:
    """Mixed-radix combine per-column codes into one int64 code per row.

    Returns ``(combined, null_any)`` where ``null_any`` flags rows with a
    NULL (code 0) in any key column.  Re-densifies via ``np.unique`` before
    any step that could overflow int64.
    """
    first = column_codes[0]
    combined = first.codes
    null_any = combined == 0
    radix_total = np.int64(max(first.radix, 1))
    for encoder in column_codes[1:]:
        radix = np.int64(max(encoder.radix, 1))
        if radix_total > _RADIX_LIMIT // radix:
            uniq, inverse = np.unique(combined, return_inverse=True)
            combined = inverse.astype(np.int64)
            radix_total = np.int64(len(uniq))
        combined = combined * radix + encoder.codes
        null_any = null_any | (encoder.codes == 0)
        radix_total = radix_total * radix
    return combined, null_any


@dataclass
class GroupCodes:
    """Result of :func:`encode_group_keys`.

    ``codes[i]`` is the dense group id of row ``i``, numbered by **first
    appearance** so that emitting groups in code order reproduces the row
    executor's dict-insertion output order exactly.
    """

    codes: np.ndarray  #: int64 group id per row, first-appearance ordered
    group_count: int
    first_rows: np.ndarray  #: row index of each group's first occurrence
    null_rows: np.ndarray  #: bool mask: key contains a NULL (still grouped)


def encode_group_keys(
    columns: Sequence[Sequence[Any]], dtypes: Sequence[DataType | None]
) -> GroupCodes:
    """Factorize grouping key columns into dense first-appearance codes."""
    encoders = [_encode_column(col, dt) for col, dt in zip(columns, dtypes)]
    combined, null_any = _combine(encoders)
    uniq, first_idx, inverse = np.unique(
        combined, return_index=True, return_inverse=True
    )
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq), dtype=np.int64)
    codes = rank[inverse]
    return GroupCodes(
        codes=codes,
        group_count=len(uniq),
        first_rows=first_idx[order],
        null_rows=null_any,
    )


def partition_codes(codes: np.ndarray, num_partitions: int) -> list[np.ndarray]:
    """Radix-partition dense int64 key codes into per-partition row indices.

    Row ``i`` lands in partition ``codes[i] % num_partitions``; rows keep
    their input order inside each partition, so per-partition processing in
    partition-then-row order is deterministic.  Rows with negative codes (:data:`NULL_CODE`)
    belong to no partition and are excluded — join and group keys shard on
    real key identity only.

    Returns ``num_partitions`` int64 arrays of row indices.
    """
    if num_partitions < 1:
        raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
    codes = np.asarray(codes, dtype=np.int64)
    if num_partitions == 1:
        return [np.flatnonzero(codes >= 0).astype(np.int64, copy=False)]
    # Negative codes go to a sentinel bucket past the last real partition
    # (numpy's modulo maps -1 % k to k-1, which would leak NULLs into a
    # real partition).
    valid = codes >= 0
    pids = np.where(valid, codes % num_partitions, num_partitions)
    order = np.argsort(pids, kind="stable")
    sorted_pids = pids[order]
    bounds = np.searchsorted(sorted_pids, np.arange(num_partitions + 1))
    return [
        order[bounds[p] : bounds[p + 1]].astype(np.int64, copy=False)
        for p in range(num_partitions)
    ]


class IncrementalGroupEncoder:
    """Shared group-key dictionary for the streaming two-pass group-by.

    Each batch is factorized locally with :func:`encode_group_keys` (the
    numpy-fast path), then only the batch's **distinct** keys are mapped
    through a persistent insertion-ordered dictionary.  Global codes are
    therefore stable across batches and numbered by first appearance over
    the whole stream — emitting groups in code order reproduces the row
    executor's dict-insertion output order — while the per-batch Python
    work is O(distinct keys in the batch), not O(rows).

    The dictionary keys are the actual key values (a scalar for
    single-column keys, a tuple otherwise), so cross-batch equality follows
    Python ``==``/``hash`` semantics exactly like the row executor's group
    dict (``1 == 1.0``, ``True == 1``).  NaN grouping keys must be rejected
    by the caller before encoding (``np.unique`` collapses NaNs that the
    row path's dict keeps distinct).
    """

    def __init__(self, dtypes: Sequence[DataType | None]) -> None:
        self._dtypes = list(dtypes)
        self._single = len(self._dtypes) == 1
        self._key_map: dict[Any, int] = {}

    @property
    def group_count(self) -> int:
        return len(self._key_map)

    def encode_batch(
        self, columns: Sequence[Sequence[Any]]
    ) -> tuple[np.ndarray, list[int]]:
        """Encode one batch of key columns against the shared dictionary.

        Returns ``(codes, new_first_rows)``: the global int64 group code per
        row, plus the batch row index of the first occurrence of each group
        that is **new** to the stream, in global-code order (the new groups
        occupy codes ``group_count_before .. group_count_after - 1``).
        """
        local = encode_group_keys(columns, self._dtypes)
        key_map = self._key_map
        before = len(key_map)
        translation = np.empty(local.group_count, dtype=np.int64)
        first_rows = local.first_rows.tolist()
        if self._single:
            column = columns[0]
            for g, r in enumerate(first_rows):
                translation[g] = key_map.setdefault(column[r], len(key_map))
        else:
            for g, r in enumerate(first_rows):
                key = tuple(column[r] for column in columns)
                translation[g] = key_map.setdefault(key, len(key_map))
        # Local codes are first-appearance ordered, so new global codes are
        # assigned in increasing order as ``g`` advances — the new-group
        # representatives come out already sorted by global code.
        new_first_rows = [
            r for g, r in enumerate(first_rows) if translation[g] >= before
        ]
        return translation[local.codes], new_first_rows


class JoinKeyTable:
    """Code dictionary fitted on a hash join's build side.

    Construction factorizes the build keys; :attr:`build_codes` holds one
    dense code per build row with :data:`NULL_CODE` at NULL keys (excluded
    from matching).  :meth:`probe` maps probe-side key columns through the
    same dictionary, returning the matching build code or :data:`NULL_CODE`
    for NULL or never-seen keys — so a whole probe batch resolves to build
    rows with array lookups and zero per-row tuple construction.

    Unlike :func:`encode_group_keys`, the multi-column combine here never
    re-densifies mid-stream (probe must replay the build side's exact radix
    arithmetic); when the radix product would overflow int64, the combine
    degrades to a dict over per-column code tuples instead.
    """

    def __init__(
        self,
        build_columns: Sequence[Sequence[Any]],
        build_dtypes: Sequence[DataType | None],
        probe_dtypes: Sequence[DataType | None] | None = None,
    ) -> None:
        probe_dtypes = probe_dtypes if probe_dtypes is not None else build_dtypes
        self._encoders = []
        for col, build_dt, probe_dt in zip(build_columns, build_dtypes, probe_dtypes):
            # The numpy path requires both sides to share the fixed-width
            # dtype; mixed pairs (e.g. INTEGER vs FLOAT) use the dict path,
            # whose Python hashing equates 1 and 1.0 like the row executor.
            dtype = build_dt if build_dt == probe_dt else None
            self._encoders.append(_encode_column(col, dtype))
        self._radices = [max(enc.radix, 1) for enc in self._encoders]
        product = 1
        for radix in self._radices:
            product *= radix
        self._tuple_mode = product >= int(_RADIX_LIMIT)
        per_codes = [enc.codes for enc in self._encoders]
        if self._tuple_mode:
            self._tuple_map: dict[tuple, int] = {}
            self.build_codes = self._tuple_encode(per_codes, fit=True)
            self.group_count = len(self._tuple_map)
        else:
            combined, null_any = self._radix_combine(per_codes)
            valid = ~null_any
            uniq, inverse = np.unique(combined[valid], return_inverse=True)
            codes = np.full(len(combined), NULL_CODE, dtype=np.int64)
            codes[valid] = inverse.astype(np.int64)
            self.build_codes = codes
            self.group_count = len(uniq)
            self._uniques = uniq

    def probe(self, columns: Sequence[Sequence[Any]]) -> np.ndarray:
        """Map probe key columns to build codes (``NULL_CODE`` = no match)."""
        per_codes = [enc.transform(col) for enc, col in zip(self._encoders, columns)]
        if self._tuple_mode:
            return self._tuple_encode(per_codes, fit=False)
        combined, null_any = self._radix_combine(per_codes)
        uniq = self._uniques
        n = len(combined)
        if len(uniq) == 0:
            return np.full(n, NULL_CODE, dtype=np.int64)
        idx = np.searchsorted(uniq, combined)
        clipped = np.minimum(idx, len(uniq) - 1)
        found = (~null_any) & (idx < len(uniq)) & (uniq[clipped] == combined)
        return np.where(found, clipped, NULL_CODE).astype(np.int64)

    def _radix_combine(self, per_codes: list) -> tuple[np.ndarray, np.ndarray]:
        combined = per_codes[0]
        null_any = combined == 0
        for codes, radix in zip(per_codes[1:], self._radices[1:]):
            combined = combined * np.int64(radix) + codes
            null_any = null_any | (codes == 0)
        return combined, null_any

    def _tuple_encode(self, per_codes: list, fit: bool) -> np.ndarray:
        n = len(per_codes[0])
        out = np.full(n, NULL_CODE, dtype=np.int64)
        mapping = self._tuple_map
        rows = zip(*(codes.tolist() for codes in per_codes))
        if fit:
            setdefault = mapping.setdefault
            for i, key in enumerate(rows):
                if 0 not in key:
                    out[i] = setdefault(key, len(mapping))
        else:
            get = mapping.get
            for i, key in enumerate(rows):
                if 0 not in key:
                    out[i] = get(key, NULL_CODE)
        return out
