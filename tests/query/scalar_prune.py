"""The scalar zone-map code: one zone, one node, one predicate at a time.

This is how zone maps were computed, merged and pruned before they
became columns (:func:`repro.logs.columnar.group_zone_columns`,
:mod:`repro.query.prune`).  It is kept here, unchanged but for one fix,
as the reference oracle of ``test_prune_differential.py``: the kernel
must equal :func:`reference_zone_map` per row group, the vectorized
mask must equal :func:`shard_may_match` node by node, and
:meth:`repro.query.prune.ZoneTable.merge` must equal
:func:`merge_zone_maps`.

The fix: ``kind eq`` with an infinite value raised ``OverflowError``
from ``int(inf)``; it now answers "maybe", as the other values that
``int()`` rejects do.
"""

from __future__ import annotations

import numpy as np

from repro.core import bitops
from repro.logs.columnar import KIND_ERROR, RecordColumns
from repro.query.plan import Derive, Predicate


def reference_zone_map(cols: RecordColumns) -> dict:
    """Per-shard min/max/count summary, computed in one pass per field."""
    n = len(cols)
    zone: dict = {
        "n_records": n,
        "t": None,
        "temp": None,
        "n_temp": 0,
        "kinds": {},
        "bits": None,
    }
    if n == 0:
        return zone
    zone["t"] = [float(cols.t.min()), float(cols.t.max())]
    has_temp = ~np.isnan(cols.temp)
    n_temp = int(has_temp.sum())
    zone["n_temp"] = n_temp
    if n_temp:
        logged = cols.temp[has_temp]
        zone["temp"] = [float(logged.min()), float(logged.max())]
    kinds, counts = np.unique(cols.kind, return_counts=True)
    zone["kinds"] = {str(int(k)): int(c) for k, c in zip(kinds, counts)}
    err = cols.kind == KIND_ERROR
    if err.any():
        bits = np.asarray(
            bitops.n_flipped_bits(cols.expected[err], cols.actual[err]),
            dtype=np.int64,
        ).reshape(-1)
        zone["bits"] = [int(bits.min()), int(bits.max())]
    return zone


def _interval_may_match(lo, hi, pred: Predicate) -> bool:
    """Can any value in [lo, hi] satisfy the predicate?"""
    op, v = pred.op, pred.value
    try:
        if op == "eq":
            return lo <= v <= hi
        if op == "ne":
            return not (lo == hi == v)
        if op == "lt":
            return lo < v
        if op == "le":
            return lo <= v
        if op == "gt":
            return hi > v
        if op == "ge":
            return hi >= v
        if op == "in":
            return any(lo <= item <= hi for item in v)
    except TypeError:
        return True  # incomparable types: let the executor decide
    return True


def _widen_f32(lo: float, hi: float) -> tuple[float, float]:
    """Bounds that survive a float64 -> float32 -> float64 round trip.

    ``temp_c`` re-rounds shard temperatures through float32 (the
    ErrorFrame dtype); rounding can push a value just past the shard's
    float64 min/max, so pruning against ``temp_c`` widens the zone by
    one float32 ULP on each side.
    """
    lo32 = np.nextafter(np.float32(lo), np.float32(-np.inf))
    hi32 = np.nextafter(np.float32(hi), np.float32(np.inf))
    return float(lo32), float(hi32)


def _bits_bounds(zone: dict) -> tuple[int, int] | None:
    """Full-column n_bits range: ERROR rows from the zone's ``bits``
    entry, every non-ERROR row contributing 0 (expected == actual == 0)."""
    n_records = zone.get("n_records") or 0
    if n_records == 0:
        return None
    n_errors = int(zone.get("kinds", {}).get(str(KIND_ERROR), 0))
    bits = zone.get("bits")
    if bits is None:
        return (0, 0)
    lo, hi = int(bits[0]), int(bits[1])
    if n_records > n_errors:  # non-error rows exist -> 0 is present
        lo = min(lo, 0)
    return (lo, hi)


def _predicate_may_match(zone: dict, node: str, pred: Predicate,
                         derives: dict[str, Derive]) -> bool:
    n_records = zone.get("n_records") or 0
    if n_records == 0:
        return False
    column = pred.column
    spec = derives.get(column)
    if spec is not None:
        # Resolve the derived column to something zone-mappable.
        if spec.fn == "temp_c":
            column = "temp_c"
        elif spec.fn == "has_temp":
            column = "has_temp"
        elif spec.fn == "n_bits":
            column = "n_bits"
        elif spec.fn == "bit_bucket":
            bounds = _bits_bounds(zone)
            if bounds is None:
                return False
            max_bucket = int(dict(spec.args).get("max_bucket", 6))
            return _interval_may_match(
                min(bounds[0], max_bucket), min(bounds[1], max_bucket), pred
            )
        else:
            return True  # hour/day/temp_bin: no zone information

    if column == "node":
        if pred.op in ("isnull", "notnull"):
            return pred.op == "notnull"
        return _interval_may_match(node, node, pred)

    if column == "t":
        if pred.op in ("isnull", "notnull"):
            return pred.op == "notnull"
        zone_t = zone.get("t")
        if zone_t is None:
            return False
        return _interval_may_match(float(zone_t[0]), float(zone_t[1]), pred)

    if column == "kind":
        kinds = zone.get("kinds") or {}
        present = sorted(int(k) for k, c in kinds.items() if c)
        if pred.op in ("isnull", "notnull"):
            return pred.op == "notnull"
        if not present:
            return False
        if pred.op == "eq":
            try:
                return int(pred.value) in present
            except (TypeError, ValueError, OverflowError):
                return True
        return _interval_may_match(present[0], present[-1], pred)

    if column in ("temp", "temp_c"):
        n_temp = int(zone.get("n_temp") or 0)
        if pred.op == "isnull":
            return n_temp < n_records
        if pred.op == "notnull":
            return n_temp > 0
        if pred.op == "ne" and n_temp < n_records:
            return True  # NaN != value is true: unlogged rows match
        if n_temp == 0:
            return False  # all other comparisons are False on NaN rows
        zone_temp = zone.get("temp")
        if zone_temp is None:
            return True  # inconsistent zone: stay conservative
        lo, hi = float(zone_temp[0]), float(zone_temp[1])
        if column == "temp_c":
            lo, hi = _widen_f32(lo, hi)
        return _interval_may_match(lo, hi, pred)

    if column == "has_temp":
        n_temp = int(zone.get("n_temp") or 0)
        truthy = {True: n_temp > 0, False: n_temp < n_records}
        if pred.op == "eq":
            return truthy.get(bool(pred.value), True)
        if pred.op == "ne":
            return truthy.get(not bool(pred.value), True)
        return True

    if column == "n_bits":
        if pred.op in ("isnull", "notnull"):
            return pred.op == "notnull"
        bounds = _bits_bounds(zone)
        if bounds is None:
            return False
        return _interval_may_match(bounds[0], bounds[1], pred)

    return True  # mb/va/pp/expected/actual/rep: no zone information


def merge_zone_maps(zones) -> dict | None:
    """Union of several zone maps, exact for the merged row set.

    Every zone-map field is decomposable: counts add, ranges union.  A
    multi-part node (live L0 segments plus compacted shards) can
    therefore be pruned against the merge of its part zones with the
    same conservatism guarantee as a single shard — no predicate path
    in :func:`_predicate_may_match` can prune a merged zone whose parts
    contain a matching row.  Returns ``None`` (never prune) if any part
    lacks zone information.
    """
    zones = list(zones)
    if not zones or any(z is None for z in zones):
        return None
    merged: dict = {
        "n_records": 0,
        "t": None,
        "temp": None,
        "n_temp": 0,
        "kinds": {},
        "bits": None,
    }

    def _union(current, extra):
        if extra is None:
            return current
        lo, hi = float(extra[0]), float(extra[1])
        if current is None:
            return [lo, hi]
        return [min(current[0], lo), max(current[1], hi)]

    for zone in zones:
        merged["n_records"] += int(zone.get("n_records") or 0)
        merged["n_temp"] += int(zone.get("n_temp") or 0)
        merged["t"] = _union(merged["t"], zone.get("t"))
        merged["temp"] = _union(merged["temp"], zone.get("temp"))
        bits = zone.get("bits")
        if bits is not None:
            lo, hi = int(bits[0]), int(bits[1])
            if merged["bits"] is None:
                merged["bits"] = [lo, hi]
            else:
                merged["bits"] = [
                    min(merged["bits"][0], lo),
                    max(merged["bits"][1], hi),
                ]
        for code, count in (zone.get("kinds") or {}).items():
            merged["kinds"][code] = merged["kinds"].get(code, 0) + int(count)
    return merged


def shard_may_match(zone: dict | None, node: str,
                    predicates: tuple[Predicate, ...],
                    derives: dict[str, Derive]) -> bool:
    """Conservative satisfiability of the filter conjunction on a shard."""
    if zone is None:
        return True  # v1 archive: no zone maps, never prune
    if (zone.get("n_records") or 0) == 0:
        return False  # empty shard matches nothing
    return all(
        _predicate_may_match(zone, node, pred, derives) for pred in predicates
    )
