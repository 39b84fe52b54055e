"""Zone-map pruning: for every node at once, could any row match?

A :class:`ZoneTable` holds one archive snapshot's zone maps as columns,
one row per node in name order, and :func:`prune_mask` evaluates a
plan's filter conjunction against all of it in one vectorized pass.

The rule is strictly conservative: a node is pruned only when its zone
proves the conjunction unsatisfiable.  A column without zone
information, a node without a zone map (v1 manifests carry none) and a
value the column cannot be compared with (a string against ``t``) all
answer "maybe".  Comparisons follow Python's scalar semantics, so the
mask equals the per-node rules it replaced, which
``tests/query/scalar_prune.py`` keeps as a differential-test oracle.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..logs.columnar import KIND_ERROR
from .plan import Derive, Predicate

_COMPARE = {
    "eq": operator.eq,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}

#: How a node's part zones combine into its zone, field by field.  An
#: absent range is NaN for ``t``/``temp`` and the empty ``bits`` range
#: (64, 0), so min/max merges need no special case.
_MERGE = {
    "n_records": np.add,
    "n_parts": np.add,
    "known": np.logical_and,
    "t_lo": np.fmin,
    "t_hi": np.fmax,
    "n_temp": np.add,
    "temp_lo": np.fmin,
    "temp_hi": np.fmax,
    "kinds": np.add,
    "bits_lo": np.minimum,
    "bits_hi": np.maximum,
    "has_bits": np.logical_or,
}


@dataclass(frozen=True, eq=False)
class ZoneTable:
    """Zone maps of one archive snapshot as columns, one row per node.

    ``nodes`` are sorted names.  A node is ``known`` when every part of
    it (``n_parts`` manifest entries) has a zone map; otherwise its
    other columns are not consulted and it is never pruned.  ``t_lo``/
    ``t_hi`` and ``temp_lo``/``temp_hi`` are NaN where the zone map
    holds None, ``kinds`` counts kind codes 0-3, and ``bits_lo``/
    ``bits_hi`` are the ERROR rows' flipped-bit range where
    ``has_bits`` (the empty range 64, 0 elsewhere).  ``n_records`` is
    exact for every node whose parts can say (a v1 shard entry's
    count; 0 when absent).
    """

    nodes: tuple[str, ...]
    n_records: np.ndarray
    n_parts: np.ndarray
    known: np.ndarray
    t_lo: np.ndarray
    t_hi: np.ndarray
    n_temp: np.ndarray
    temp_lo: np.ndarray
    temp_hi: np.ndarray
    kinds: np.ndarray
    bits_lo: np.ndarray
    bits_hi: np.ndarray
    has_bits: np.ndarray

    def __len__(self) -> int:
        return len(self.nodes)

    @classmethod
    def from_zone_maps(
        cls,
        nodes: Sequence[str],
        zones: Sequence[dict | None],
        n_records: Sequence[int | None] | None = None,
    ) -> "ZoneTable":
        """One part per node from zone-map dicts.

        A None zone (or one counting kind codes outside 0-3) leaves the
        node unknown; its ``n_records`` then comes from ``n_records``.
        """
        counts = n_records if n_records is not None else [0] * len(nodes)
        rows = np.array(
            [_zone_row(zone, count) for zone, count in zip(zones, counts)],
            dtype=np.float64,
        ).reshape(len(nodes), 14)
        ints = rows[:, :10].astype(np.int64)
        return cls(
            nodes=tuple(nodes),
            n_records=ints[:, 0],
            n_parts=np.ones(len(nodes), dtype=np.int64),
            known=ints[:, 1] == 1,
            n_temp=ints[:, 2],
            kinds=ints[:, 3:7],
            bits_lo=ints[:, 7],
            bits_hi=ints[:, 8],
            has_bits=ints[:, 9] == 1,
            t_lo=rows[:, 10],
            t_hi=rows[:, 11],
            temp_lo=rows[:, 12],
            temp_hi=rows[:, 13],
        )

    @classmethod
    def merge(cls, parts: Sequence["ZoneTable"]) -> "ZoneTable":
        """Per-node union of part tables.

        Counts add and ranges take min/max, exactly as merging the
        parts' zone-map dicts does; a node is known only when every one
        of its parts is.  The merged zone is exact for the merged rows,
        so a multi-part node prunes like the single compacted run that
        later replaces it.
        """
        if not parts:
            return cls.from_zone_maps([], [])
        if len(parts) == 1:
            return parts[0]
        names = sorted(set().union(*(part.nodes for part in parts)))
        row_of = {name: i for i, name in enumerate(names)}
        rows = np.array(
            [row_of[name] for part in parts for name in part.nodes], dtype=np.intp
        )
        order = np.argsort(rows, kind="stable")
        starts = np.flatnonzero(np.diff(rows[order], prepend=-1))
        return cls(
            nodes=tuple(names),
            **{
                name: reduce.reduceat(
                    np.concatenate([getattr(p, name) for p in parts])[order],
                    starts,
                    axis=0,
                )
                for name, reduce in _MERGE.items()
            },
        )


def _zone_row(zone: dict | None, count: int | None) -> tuple:
    """One zone map as a :meth:`ZoneTable.from_zone_maps` row: the
    integer fields, then the ``t`` and ``temp`` ranges."""
    nan = np.nan
    kinds = (zone or {}).get("kinds") or {}
    if zone is None or not set(kinds) <= set("0123"):
        return (count or 0, 0, 0, 0, 0, 0, 0, 64, 0, 0, nan, nan, nan, nan)
    bits = zone.get("bits")
    return (
        zone.get("n_records") or 0, 1, zone.get("n_temp") or 0,
        *(kinds.get(code, 0) for code in "0123"),
        *(bits or (64, 0)), bits is not None,
        *(zone.get("t") or (nan, nan)),
        *(zone.get("temp") or (nan, nan)),
    )


def prune_mask(
    table: ZoneTable,
    predicates: Sequence[Predicate],
    derives: dict[str, Derive],
) -> np.ndarray:
    """Which nodes may hold a row satisfying every predicate.

    False only where the node's zone proves the conjunction
    unsatisfiable: an empty node matches nothing, a node without zone
    information always may.
    """
    may = table.known & (table.n_records > 0)
    for pred in predicates:
        if not may.any():
            break
        may &= _predicate_mask(table, pred, derives)
    return may | ~table.known


def _predicate_mask(
    table: ZoneTable, pred: Predicate, derives: dict[str, Derive]
) -> np.ndarray:
    column, op = pred.column, pred.op
    spec = derives.get(column)
    if spec is not None:
        # Resolve the derived column to something zone-mappable.
        if spec.fn == "bit_bucket":
            lo, hi = _bits_bounds(table)
            cap = int(dict(spec.args).get("max_bucket", 6))
            return _interval_mask(np.minimum(lo, cap), np.minimum(hi, cap), pred)
        if spec.fn not in ("temp_c", "has_temp", "n_bits"):
            return _constant(table, True)  # hour/day/temp_bin: no zone information
        column = spec.fn

    if column in ("node", "t", "kind", "n_bits") and op in ("isnull", "notnull"):
        return _constant(table, op == "notnull")
    if column == "node":
        names = np.array(table.nodes, dtype=object)
        return _interval_mask(names, names, pred)
    if column == "t":
        return _interval_mask(table.t_lo, table.t_hi, pred)
    if column == "n_bits":
        return _interval_mask(*_bits_bounds(table), pred)
    if column == "kind":
        present = table.kinds > 0
        if op == "eq":
            try:
                code = int(pred.value)
            except (TypeError, ValueError, OverflowError):
                return present.any(axis=1)
            if 0 <= code < present.shape[1]:
                return present[:, code]
            return _constant(table, False)
        lo = np.argmax(present, axis=1)
        hi = present.shape[1] - 1 - np.argmax(present[:, ::-1], axis=1)
        return present.any(axis=1) & _interval_mask(lo, hi, pred)

    n_temp, n_records = table.n_temp, table.n_records
    if column in ("temp", "temp_c"):
        if op == "isnull":
            return n_temp < n_records
        if op == "notnull":
            return n_temp > 0
        lo, hi = table.temp_lo, table.temp_hi
        if column == "temp_c":
            lo, hi = _widen_f32(lo, hi)
        # A logged node without a range is an inconsistent zone: maybe.
        may = np.isnan(table.temp_lo) | _interval_mask(lo, hi, pred)
        may &= n_temp > 0  # other comparisons are False on NaN rows
        if op == "ne":
            may |= n_temp < n_records  # NaN != value: unlogged rows match
        return may
    if column == "has_temp" and op in ("eq", "ne"):
        if bool(pred.value) == (op == "eq"):
            return n_temp > 0
        return n_temp < n_records
    return _constant(table, True)  # mb/va/pp/expected/actual/rep: no zone information


def _constant(table: ZoneTable, value: bool) -> np.ndarray:
    return np.full(len(table), value, dtype=bool)


def _bits_bounds(table: ZoneTable) -> tuple[np.ndarray, np.ndarray]:
    """Full-column n_bits range: ERROR rows from the ``bits`` columns,
    every non-ERROR row contributing 0 (expected == actual == 0)."""
    lo = np.where(table.has_bits, table.bits_lo, 0)
    hi = np.where(table.has_bits, table.bits_hi, 0)
    non_error = table.n_records > table.kinds[:, KIND_ERROR]
    return np.where(non_error, np.minimum(lo, 0), lo), hi


def _widen_f32(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds that survive a float64 -> float32 -> float64 round trip.

    ``temp_c`` re-rounds shard temperatures through float32 (the
    ErrorFrame dtype); rounding can push a value just past the node's
    float64 min/max, so pruning against ``temp_c`` widens the zone by
    one float32 ULP on each side.
    """
    with np.errstate(over="ignore"):
        lo32 = np.nextafter(lo.astype(np.float32), np.float32(-np.inf))
        hi32 = np.nextafter(hi.astype(np.float32), np.float32(np.inf))
    return lo32.astype(np.float64), hi32.astype(np.float64)


def _interval_mask(lo: np.ndarray, hi: np.ndarray, pred: Predicate) -> np.ndarray:
    """Can any value in [lo, hi] satisfy the predicate?  (Per row.)"""
    op, v = pred.op, pred.value
    try:
        if op == "eq":
            return _compare(lo, "le", v) & _compare(hi, "ge", v)
        if op == "ne":
            return ~((lo == hi) & _compare(hi, "eq", v))
        if op in ("lt", "le"):
            return _compare(lo, op, v)
        if op in ("gt", "ge"):
            return _compare(hi, op, v)
        if op == "in":
            may = np.zeros(lo.shape[0], dtype=bool)
            for item in v:
                may |= _compare(lo, "le", item) & _compare(hi, "ge", item)
            return may
    except TypeError:
        pass  # incomparable types: let the executor decide
    return np.ones(lo.shape[0], dtype=bool)


def _compare(values: np.ndarray, op: str, v) -> np.ndarray:
    """``values <op> v`` per element, with Python's scalar semantics.

    NumPy compares a numeric column with a float, or with an int a
    float64 holds exactly, the way Python does.  Any other value (a
    string, None, a huge int, a name column) is compared in Python,
    once per distinct value, and raises TypeError where Python would.
    """
    compare = _COMPARE[op]
    if values.dtype.kind in "fiu" and (
        type(v) is float or (type(v) in (int, bool) and -(2**53) <= v <= 2**53)
    ):
        return compare(values, v)
    distinct, inverse = np.unique(values, return_inverse=True)
    # repro: noqa[NPY002]: Python comparison semantics, once per distinct value
    scalars = distinct.tolist()
    answers = np.fromiter(
        (bool(compare(x, v)) for x in scalars), dtype=bool, count=len(scalars)
    )
    return answers[inverse]
