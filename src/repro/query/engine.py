"""The vectorized executor: plans in, column arrays out.

Execution is shard-at-a-time: prune against the zone map, load only the
base columns the plan touches, materialize derived columns, evaluate
the filter conjunction as one boolean mask, then either collect
projected rows or fold the shard into the group-aggregate accumulator.
No record objects, no per-row Python — every stage is a NumPy kernel.
The derived columns repeat the arithmetic of the :mod:`repro.analysis`
histograms to the ufunc, so a plan that bins the error rows gives the
same counts as the analysis function over the extracted frame.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core import bitops
from ..core.errors import QueryPlanError
from .cache import QueryCache
from .plan import BASE_COLUMNS, Aggregate, Predicate, Query
from .prune import shard_may_match
from .source import as_source

# ---------------------------------------------------------------------------
# Derived columns
# ---------------------------------------------------------------------------


def _derive_hour(cols: dict) -> np.ndarray:
    # Matches repro.analysis.temporal.hourly_histogram exactly.
    return (cols["t"] % 24.0).astype(np.int64) % 24


def _derive_day(cols: dict, *, n_days: int) -> np.ndarray:
    # Matches repro.analysis.temporal.daily_histogram exactly.
    return np.clip((cols["t"] // 24.0).astype(np.int64), 0, int(n_days) - 1)


def _derive_n_bits(cols: dict) -> np.ndarray:
    return np.asarray(
        bitops.n_flipped_bits(cols["expected"], cols["actual"]), dtype=np.int64
    ).reshape(-1)


def _derive_bit_bucket(cols: dict, *, max_bucket: int = 6) -> np.ndarray:
    return np.minimum(_derive_n_bits(cols), int(max_bucket))


def _derive_temp_c(cols: dict) -> np.ndarray:
    # The ErrorFrame temperature semantic: shard float64 values pass
    # through the frame's float32 column before analyses widen them
    # back.  Reproducing the round trip keeps temperature bins equal to
    # repro.analysis.correlation.temperature_histogram's.
    return cols["temp"].astype(np.float32).astype(np.float64)


def _derive_has_temp(cols: dict) -> np.ndarray:
    return ~np.isnan(cols["temp"])


def _derive_temp_bin(cols: dict, *, edges) -> np.ndarray:
    """np.histogram-compatible binning of ``temp_c``; -1 = out of range.

    Same arithmetic as ``np.histogram(x, bins=edges)`` for an explicit
    edge array: right-open bins, the last bin closed, NaN and
    out-of-range values dropped (here: marked -1 for the filter stage).
    """
    edges = np.asarray(edges, dtype=np.float64)
    if edges.ndim != 1 or edges.shape[0] < 2:
        raise QueryPlanError("temp_bin needs at least two bin edges")
    if np.any(np.diff(edges) <= 0):
        raise QueryPlanError("temp_bin edges must be strictly increasing")
    x = _derive_temp_c(cols)
    idx = np.searchsorted(edges, x, side="right").astype(np.int64) - 1
    idx = np.where(x == edges[-1], edges.shape[0] - 2, idx)
    valid = (x >= edges[0]) & (x <= edges[-1])
    return np.where(valid, idx, np.int64(-1))


#: fn name -> (callable, base columns it needs).  Every function must be
#: elementwise (row i of the output depends only on row i of the deps):
#: the executor exploits this by computing derived *output* columns on
#: already-filtered rows instead of whole shards.
DERIVED_COLUMNS = {
    "hour": (_derive_hour, {"t"}),
    "day": (_derive_day, {"t"}),
    "n_bits": (_derive_n_bits, {"expected", "actual"}),
    "bit_bucket": (_derive_bit_bucket, {"expected", "actual"}),
    "temp_c": (_derive_temp_c, {"temp"}),
    "has_temp": (_derive_has_temp, {"temp"}),
    "temp_bin": (_derive_temp_bin, {"temp"}),
}


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class ExecutionStats:
    """What one execution did (and did not) touch."""

    shards_total: int = 0
    shards_pruned: int = 0
    shards_scanned: int = 0
    rows_scanned: int = 0
    rows_output: int = 0
    cache_hit: bool = False
    elapsed_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "shards_total": self.shards_total,
            "shards_pruned": self.shards_pruned,
            "shards_scanned": self.shards_scanned,
            "rows_scanned": self.rows_scanned,
            "rows_output": self.rows_output,
            "cache_hit": self.cache_hit,
            "elapsed_s": self.elapsed_s,
        }


@dataclass
class QueryResult:
    """Ordered output columns plus execution accounting."""

    columns: dict[str, np.ndarray]
    stats: ExecutionStats = field(default_factory=ExecutionStats)

    @property
    def n_rows(self) -> int:
        if not self.columns:
            return 0
        return int(next(iter(self.columns.values())).shape[0])

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def to_dict(self) -> dict:
        """JSON-shaped rendering (the server's response body)."""
        return {
            "columns": {
                name: _jsonable_list(arr) for name, arr in self.columns.items()
            },
            "n_rows": self.n_rows,
            "stats": self.stats.to_dict(),
        }


def _jsonable_list(arr: np.ndarray) -> list:
    # repro: noqa[NPY002]: JSON wire boundary — results leave the array domain here
    out = arr.tolist()
    if arr.dtype.kind == "f":
        # JSON has no NaN/Inf literal; the wire format uses null.
        out = [None if (v != v or v in (float("inf"), float("-inf"))) else v
               for v in out]
    return out


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class QueryEngine:
    """Executes :class:`Query` plans against one shard source."""

    def __init__(self, source, *, cache: QueryCache | None = None,
                 prune: bool = True):
        self.source = as_source(source)
        self.cache = cache if cache is not None else QueryCache()
        self.prune = prune
        self.queries_run = 0
        self._seen_fingerprint: str | None = None

    # -- public API --------------------------------------------------------

    def execute(self, plan: Query, *, use_cache: bool = True) -> QueryResult:
        start = time.perf_counter()
        self.queries_run += 1
        fingerprint = self.source.fingerprint()
        if fingerprint != self._seen_fingerprint:
            # The archive changed under us (live ingest/compaction
            # commit): results keyed on any older state are dead weight.
            if self._seen_fingerprint is not None:
                self.cache.invalidate(fingerprint)
            self._seen_fingerprint = fingerprint
        key = (fingerprint, plan.digest())
        if use_cache:
            cached = self.cache.get(key)
            if cached is not None:
                stats = ExecutionStats(
                    shards_total=cached.stats.shards_total,
                    shards_pruned=cached.stats.shards_pruned,
                    rows_output=cached.stats.rows_output,
                    cache_hit=True,
                    elapsed_s=time.perf_counter() - start,
                )
                return QueryResult(columns=cached.columns, stats=stats)
        result = self._execute_cold(plan)
        result.stats.elapsed_s = time.perf_counter() - start
        if use_cache:
            self.cache.put(key, result)
        return result

    # -- execution ---------------------------------------------------------

    def _execute_cold(self, plan: Query) -> QueryResult:
        stats = ExecutionStats()
        derives = {d.name: d for d in plan.derive}
        needed = plan.required_columns()
        base_needed = {n for n in needed if n in BASE_COLUMNS}
        for name in needed:
            spec = derives.get(name)
            if spec is not None:
                base_needed |= DERIVED_COLUMNS[spec.fn][1]
        if not base_needed - {"node"}:
            base_needed.add("kind")  # narrowest column, for row counts

        shards = self.source.shards()
        if plan.nodes is not None:
            wanted_nodes = set(plan.nodes)
            shards = [s for s in shards if s.node in wanted_nodes]
        stats.shards_total = len(shards)

        parts: list[dict[str, np.ndarray]] = []
        for shard in shards:
            if self.prune and not shard_may_match(
                shard.zone_map, shard.node, plan.filters, derives
            ):
                stats.shards_pruned += 1
                continue
            stats.shards_scanned += 1
            base = self.source.load_columns(shard.node, base_needed)
            n = int(next(iter(base.values())).shape[0]) if base else 0
            stats.rows_scanned += n
            if n == 0:
                continue
            columns = dict(base)
            mask = self._filter_mask(plan, columns, derives, n)
            if mask is not None and not mask.any():
                continue
            part = self._assemble_part(plan, columns, derives, mask, n)
            parts.append(part)

        if plan.is_aggregate:
            columns = self._aggregate(plan, parts)
        else:
            columns = self._collect_rows(plan, parts)
        columns = self._order_and_limit(plan, columns)
        for arr in columns.values():
            arr.flags.writeable = False
        stats.rows_output = (
            int(next(iter(columns.values())).shape[0]) if columns else 0
        )
        return QueryResult(columns=columns, stats=stats)

    def _materialize(self, name: str, columns: dict, derives: dict) -> np.ndarray:
        if name in columns:
            return columns[name]
        spec = derives.get(name)
        if spec is None:
            raise QueryPlanError(f"column {name!r} is not available")
        fn, _deps = DERIVED_COLUMNS[spec.fn]
        arr = fn(columns, **spec.kwargs)
        columns[name] = arr
        return arr

    def _filter_mask(self, plan: Query, columns: dict, derives: dict,
                     n: int) -> np.ndarray | None:
        mask: np.ndarray | None = None
        for pred in plan.filters:
            arr = self._materialize(pred.column, columns, derives)
            clause = _evaluate(pred, arr)
            mask = clause if mask is None else (mask & clause)
            if not mask.any():
                return mask
        return mask

    def _assemble_part(self, plan: Query, columns: dict, derives: dict,
                       mask: np.ndarray | None, n: int) -> dict:
        """One shard's contribution to the output: only the columns the
        output stage consumes (group keys, aggregate inputs, projected
        rows) — filter-only columns are dropped here, and derived output
        columns not referenced by a filter are computed on the already
        masked rows (derive fns are elementwise, so this is exact).
        """
        if plan.is_aggregate:
            wanted = list(plan.group_by or ())
            wanted += [a.column for a in plan.aggregates if a.column]
        else:
            wanted = list(plan.output_columns())
        masked: dict[str, np.ndarray] = {}

        def resolve(name: str) -> np.ndarray:
            if name in masked:
                return masked[name]
            if name in columns:  # base, or derived materialized for a filter
                arr = columns[name]
                out = arr[mask] if mask is not None else arr
            else:
                spec = derives.get(name)
                if spec is None:
                    raise QueryPlanError(f"column {name!r} is not available")
                fn, deps = DERIVED_COLUMNS[spec.fn]
                out = fn({dep: resolve(dep) for dep in deps}, **spec.kwargs)
            masked[name] = out
            return out

        part = {name: resolve(name) for name in wanted}
        if not part:  # pure count over all rows
            kept = int(mask.sum()) if mask is not None else n
            part["__rows__"] = np.empty(kept, dtype=np.uint8)
        return part

    # -- output assembly ---------------------------------------------------

    def _collect_rows(self, plan: Query, parts: list[dict]) -> dict:
        names = plan.output_columns()
        if not parts:
            return {name: np.empty(0, dtype=np.float64) for name in names}
        return {
            name: np.concatenate([p[name] for p in parts]) for name in names
        }

    def _aggregate(self, plan: Query, parts: list[dict]) -> dict:
        keys = plan.group_by or ()
        out: dict[str, np.ndarray] = {}
        if not parts:
            if keys:
                return {
                    name: np.empty(0, dtype=np.float64)
                    for name in plan.output_columns()
                }
            # Grand total over zero rows: count 0, everything else NaN.
            for agg in plan.aggregates:
                out[agg.alias] = (
                    np.array([0], dtype=np.int64)
                    if agg.fn == "count"
                    else np.array([np.nan], dtype=np.float64)
                )
            return out

        def gather(name: str) -> np.ndarray:
            return np.concatenate([p[name] for p in parts])

        n_rows = int(sum(next(iter(p.values())).shape[0] for p in parts))
        if not keys:
            for agg in plan.aggregates:
                values = gather(agg.column) if agg.column else None
                out[agg.alias] = _fold_all(agg, values, n_rows)
            return out

        key_arrays = [gather(k) for k in keys]
        order = np.lexsort(key_arrays[::-1])
        sorted_keys = [k[order] for k in key_arrays]
        boundary = np.zeros(n_rows, dtype=bool)
        boundary[0] = True
        for k in sorted_keys:
            boundary[1:] |= k[1:] != k[:-1]
        starts = np.flatnonzero(boundary)
        for name, k in zip(keys, sorted_keys):
            out[name] = k[starts]
        counts = np.diff(np.append(starts, n_rows))
        for agg in plan.aggregates:
            if agg.fn == "count":
                out[agg.alias] = counts.astype(np.int64)
                continue
            values = gather(agg.column)[order]
            if agg.fn == "sum":
                out[agg.alias] = np.add.reduceat(values, starts)
            elif agg.fn == "min":
                out[agg.alias] = np.minimum.reduceat(values, starts)
            elif agg.fn == "max":
                out[agg.alias] = np.maximum.reduceat(values, starts)
            elif agg.fn == "mean":
                sums = np.add.reduceat(values.astype(np.float64), starts)
                out[agg.alias] = sums / counts
        return out

    def _order_and_limit(self, plan: Query, columns: dict) -> dict:
        return order_and_limit(plan, columns)


def order_and_limit(plan: Query, columns: dict) -> dict:
    """Apply a plan's order/limit stage to assembled output columns.

    Module-level because the scatter-gather merge re-applies the same
    stage after combining per-partition results — the ordering must be
    byte-identical to single-engine execution.
    """
    if columns and next(iter(columns.values())).shape[0]:
        order_by = plan.order_by
        if not order_by and plan.is_aggregate and plan.group_by:
            order_by = plan.group_by  # deterministic default
        if order_by:
            idx = np.arange(next(iter(columns.values())).shape[0])
            for name in reversed(order_by):
                descending = name.startswith("-")
                col = columns[name.lstrip("-")][idx]
                sub = np.argsort(col, kind="stable")
                if descending:
                    sub = sub[::-1]
                idx = idx[sub]
            columns = {name: arr[idx] for name, arr in columns.items()}
    if plan.limit is not None:
        columns = {
            name: arr[: plan.limit] for name, arr in columns.items()
        }
    return columns


def _evaluate(pred: Predicate, arr: np.ndarray) -> np.ndarray:
    op, value = pred.op, pred.value
    if op == "isnull":
        return np.isnan(arr) if arr.dtype.kind == "f" else np.zeros(
            arr.shape[0], dtype=bool
        )
    if op == "notnull":
        return ~np.isnan(arr) if arr.dtype.kind == "f" else np.ones(
            arr.shape[0], dtype=bool
        )
    with np.errstate(invalid="ignore"):
        if op == "eq":
            return arr == value
        if op == "ne":
            return arr != value
        if op == "lt":
            return arr < value
        if op == "le":
            return arr <= value
        if op == "gt":
            return arr > value
        if op == "ge":
            return arr >= value
        if op == "in":
            return np.isin(arr, list(value))
    raise QueryPlanError(f"unhandled predicate op {op!r}")  # pragma: no cover


def _fold_all(agg: Aggregate, values: np.ndarray | None, n_rows: int) -> np.ndarray:
    if agg.fn == "count":
        return np.array([n_rows], dtype=np.int64)
    assert values is not None
    if agg.fn == "sum":
        total = values.sum()
        return np.array([total], dtype=total.dtype)
    if agg.fn == "min":
        low = values.min()
        return np.array([low], dtype=low.dtype)
    if agg.fn == "max":
        high = values.max()
        return np.array([high], dtype=high.dtype)
    return np.array([values.astype(np.float64).mean()], dtype=np.float64)
