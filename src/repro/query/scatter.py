"""Scatter-gather execution: one plan fanned across sharded workers.

The front-end partitions the archive's node population into contiguous
ranges of the sorted node list, runs the plan against each partition on
its own worker lane (a :class:`~repro.query.engine.QueryEngine` over an
independently constructed source), and merges the partial outputs into
a result matching single-engine execution — exactly for keys, row
data, counts and min/max, and up to float-summation association (the
merge re-orders the additions) for float sums and means.  Proven by
the parity suite in ``tests/server/test_scatter.py``.

Contiguous partitioning is what makes row-mode merging exact: the
concatenation of partition outputs in partition order *is* the single
engine's shard scan order, so order/limit semantics (including the
stable-sort tie rules) survive the fan-out.  Aggregates are merged with
classic partial aggregation — ``count``/``sum`` add, ``min``/``max``
fold, and ``mean`` is rewritten for the workers as ``sum`` plus a
shared group ``count`` and divided at the merge.

Two resilience mechanisms ride on the fan-out:

* **Hedged retries** — a partition whose first attempt fails is retried
  immediately on a spare lane; one that is merely *slow* (no answer
  within ``hedge_delay_s``) gets a duplicate attempt on a spare lane
  and the first success wins.  A wedged worker therefore costs one
  hedge, not the whole query.
* **Partial-result accounting** — a partition that fails all attempts
  (or times out at ``partition_timeout_s``) is dropped from the merge
  and *accounted*: the result carries ``partial=True`` and the missing
  node list, and is never admitted to the result cache.  Only when
  every partition fails does the query raise.

Abandoned attempts (hedge losers, timed-out lanes) park on the lane
pool until their blocking read returns; the pool is sized ``2x`` the
worker count so a bounded number of wedged reads cannot starve fresh
queries, and ``stats.abandoned`` counts them for the metrics endpoint.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from .cache import QueryCache
from .engine import ExecutionStats, QueryEngine, QueryResult, order_and_limit
from .plan import Aggregate, Query

#: Reserved alias prefix for merge-internal aggregate columns.
_INTERNAL = "__sg_"


def partition_nodes(nodes: list[str], n_partitions: int) -> list[tuple[str, ...]]:
    """Split sorted ``nodes`` into at most ``n_partitions`` contiguous runs.

    Contiguity in sorted order is load-bearing (see module docstring);
    empty partitions are dropped, so fewer nodes than workers simply
    yields fewer partitions.
    """
    if n_partitions < 1:
        raise ValueError("n_partitions must be >= 1")
    ordered = sorted(nodes)
    if not ordered:
        return []
    size, extra = divmod(len(ordered), n_partitions)
    parts: list[tuple[str, ...]] = []
    start = 0
    for i in range(n_partitions):
        stop = start + size + (1 if i < extra else 0)
        if stop > start:
            parts.append(tuple(ordered[start:stop]))
        start = stop
    return parts


def worker_plan(plan: Query, nodes: tuple[str, ...]) -> Query:
    """The subplan one partition executes.

    Row mode keeps order/limit (per-partition top-N is a superset of the
    partition's contribution to the global top-N).  Aggregate mode
    strips order/limit (re-applied after the merge) and rewrites every
    ``mean`` as a ``sum`` plus one shared group ``count``.
    """
    if not plan.is_aggregate:
        return replace(plan, nodes=nodes)
    aggs: list[Aggregate] = []
    need_count = any(a.fn == "mean" for a in plan.aggregates)
    have_count = any(a.fn == "count" for a in plan.aggregates)
    for agg in plan.aggregates:
        if agg.fn == "mean":
            aggs.append(
                Aggregate("sum", column=agg.column, alias=f"{_INTERNAL}sum_{agg.alias}")
            )
        else:
            aggs.append(agg)
    if need_count and not have_count:
        aggs.append(Aggregate("count", alias=f"{_INTERNAL}n"))
    return replace(
        plan, aggregates=tuple(aggs), order_by=(), limit=None, nodes=nodes
    )


def _merge_aggregates(plan: Query, parts: list[QueryResult]) -> dict:
    """Partial-aggregation merge of per-partition aggregate outputs."""
    count_alias = next(
        (a.alias for a in plan.aggregates if a.fn == "count"), f"{_INTERNAL}n"
    )
    keys = plan.group_by or ()

    def worker_alias(agg: Aggregate) -> str:
        return f"{_INTERNAL}sum_{agg.alias}" if agg.fn == "mean" else agg.alias

    if not keys:
        # Grand total: one row per partition; zero-row partitions carry
        # count 0 and NaN placeholders that must not pollute the fold.
        counts = np.array(
            [int(p.columns[count_alias][0]) for p in parts], dtype=np.int64
        )
        live = counts > 0
        out: dict[str, np.ndarray] = {}
        for agg in plan.aggregates:
            vals = np.concatenate([p.columns[worker_alias(agg)] for p in parts])
            if agg.fn == "count":
                out[agg.alias] = np.array([counts.sum()], dtype=np.int64)
            elif not live.any():
                out[agg.alias] = np.array([np.nan], dtype=np.float64)
            elif agg.fn == "sum":
                total = vals[live].sum()
                out[agg.alias] = np.array([total], dtype=total.dtype)
            elif agg.fn == "min":
                low = vals[live].min()
                out[agg.alias] = np.array([low], dtype=low.dtype)
            elif agg.fn == "max":
                high = vals[live].max()
                out[agg.alias] = np.array([high], dtype=high.dtype)
            else:  # mean = merged sum / merged count
                total = vals[live].astype(np.float64).sum()
                out[agg.alias] = np.array(
                    [total / counts.sum()], dtype=np.float64
                )
        return out

    live_parts = [p for p in parts if p.n_rows]
    if not live_parts:
        return {
            name: np.empty(0, dtype=np.float64) for name in plan.output_columns()
        }

    def gather(name: str) -> np.ndarray:
        return np.concatenate([p.columns[name] for p in live_parts])

    key_arrays = [gather(k) for k in keys]
    n_rows = int(key_arrays[0].shape[0])
    order = np.lexsort(key_arrays[::-1])
    sorted_keys = [k[order] for k in key_arrays]
    boundary = np.zeros(n_rows, dtype=bool)
    boundary[0] = True
    for k in sorted_keys:
        boundary[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(boundary)
    out = {name: k[starts] for name, k in zip(keys, sorted_keys)}
    merged_counts: np.ndarray | None = None
    if any(a.fn == "mean" for a in plan.aggregates):
        merged_counts = np.add.reduceat(gather(count_alias)[order], starts)
    for agg in plan.aggregates:
        values = gather(worker_alias(agg))[order]
        if agg.fn in ("count", "sum"):
            out[agg.alias] = np.add.reduceat(values, starts)
        elif agg.fn == "min":
            out[agg.alias] = np.minimum.reduceat(values, starts)
        elif agg.fn == "max":
            out[agg.alias] = np.maximum.reduceat(values, starts)
        else:  # mean
            sums = np.add.reduceat(values.astype(np.float64), starts)
            out[agg.alias] = sums / merged_counts
    return out


def _merge_rows(plan: Query, parts: list[QueryResult]) -> dict:
    names = plan.output_columns()
    live = [p for p in parts if p.n_rows]
    if not live:
        return {name: np.empty(0, dtype=np.float64) for name in names}
    return {
        name: np.concatenate([p.columns[name] for p in live]) for name in names
    }


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


@dataclass
class ScatterResult(QueryResult):
    """A merged result plus its fan-out accounting."""

    partial: bool = False
    missing_nodes: tuple[str, ...] = ()
    failed_partitions: int = 0
    hedges_launched: int = 0
    hedge_wins: int = 0
    retries: int = 0


@dataclass
class ScatterStats:
    """Cumulative fan-out counters (the metrics endpoint's view)."""

    queries: int = 0
    partitions_run: int = 0
    partitions_failed: int = 0
    hedges_launched: int = 0
    hedge_wins: int = 0
    retries: int = 0
    partial_results: int = 0
    abandoned: int = 0

    def to_dict(self) -> dict:
        return {
            "queries": self.queries,
            "partitions_run": self.partitions_run,
            "partitions_failed": self.partitions_failed,
            "hedges_launched": self.hedges_launched,
            "hedge_wins": self.hedge_wins,
            "retries": self.retries,
            "partial_results": self.partial_results,
            "abandoned": self.abandoned,
        }


class _Partition:
    """Mutable per-partition state for one scatter execution."""

    __slots__ = ("index", "nodes", "subplan", "attempts", "result", "errors")

    def __init__(self, index: int, nodes: tuple[str, ...], subplan: Query):
        self.index = index
        self.nodes = nodes
        self.subplan = subplan
        self.attempts = 0
        self.result: QueryResult | None = None
        self.errors: list[Exception] = []


class ScatterGatherEngine:
    """Engine-protocol fan-out across sharded archive worker lanes.

    ``source_factory`` constructs one independent source per lane (plus
    one front-end source for ``shards()``/``fingerprint()``), so a fault
    or a wedge in one lane's storage path cannot infect another's.
    Exposes the same surface the telemetry server expects of
    :class:`~repro.query.engine.QueryEngine`: ``execute``, ``source``,
    ``cache``, ``queries_run``.
    """

    def __init__(
        self,
        source_factory,
        *,
        n_workers: int = 4,
        hedge_delay_s: float = 0.1,
        partition_timeout_s: float = 30.0,
        max_attempts: int = 2,
        cache: QueryCache | None = None,
        prune: bool = True,
        clock=time.monotonic,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.n_workers = n_workers
        self.hedge_delay_s = hedge_delay_s
        self.partition_timeout_s = partition_timeout_s
        self.max_attempts = max_attempts
        self.prune = prune
        self.cache = cache if cache is not None else QueryCache()
        self.stats = ScatterStats()
        self.queries_run = 0
        self.source = source_factory()
        self._factory = source_factory
        self._clock = clock
        self._lanes = [self._make_lane() for _ in range(n_workers)]
        self._spares: list[QueryEngine] = []
        self._lock = threading.Lock()
        self._seen_fingerprint: str | None = None
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=2 * n_workers, thread_name_prefix="repro-scatter"
        )

    def _make_lane(self) -> QueryEngine:
        # Lanes never cache: the scatter-level cache keys the merged
        # result, and per-lane caches would just hold dead partials.
        return QueryEngine(
            self._factory(), cache=QueryCache(max_entries=0), prune=self.prune
        )

    def _spare_lane(self, index: int) -> QueryEngine:
        with self._lock:
            while len(self._spares) <= index % self.n_workers:
                self._spares.append(self._make_lane())
            return self._spares[index % self.n_workers]

    # -- public API --------------------------------------------------------

    def execute(self, plan: Query, *, use_cache: bool = True) -> ScatterResult:
        start = time.perf_counter()
        self.queries_run += 1
        with self._lock:
            self.stats.queries += 1
        fingerprint = self.source.fingerprint()
        if fingerprint != self._seen_fingerprint:
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
                return ScatterResult(columns=cached.columns, stats=stats)

        nodes = list(self.source.shards().nodes)
        if plan.nodes is not None:
            wanted = set(plan.nodes)
            nodes = [n for n in nodes if n in wanted]
        partitions = [
            _Partition(i, part, worker_plan(plan, part))
            for i, part in enumerate(partition_nodes(nodes, self.n_workers))
        ]
        result = self._scatter(plan, partitions)
        result.stats.elapsed_s = time.perf_counter() - start
        if use_cache and not result.partial:
            self.cache.put(key, result)
        return result

    # -- fan-out -----------------------------------------------------------

    def _scatter(self, plan: Query, partitions: list[_Partition]) -> ScatterResult:
        hedges = wins = retries = 0
        if partitions:
            # future -> (partition, attempt number it carries)
            pending: dict[concurrent.futures.Future, tuple[_Partition, int]] = {}

            def launch(part: _Partition, lane: QueryEngine) -> None:
                part.attempts += 1
                future = self._pool.submit(lane.execute, part.subplan, use_cache=False)
                pending[future] = (part, part.attempts)

            for part in partitions:
                launch(part, self._lanes[part.index % len(self._lanes)])
            with self._lock:
                self.stats.partitions_run += len(partitions)

            start = self._clock()
            deadline = start + self.partition_timeout_s
            hedge_at = start + self.hedge_delay_s
            hedged_late: set[int] = set()
            abandoned = 0
            while pending:
                # Attempts superseded by a winning sibling produce results
                # nobody will read: stop waiting on them.  A cancel that
                # fails means the worker is still burning a pool slot —
                # that is the abandoned case the metrics report.
                for future in [
                    f for f, (part, _) in pending.items() if part.result is not None
                ]:
                    del pending[future]
                    if not future.cancel():
                        abandoned += 1
                if not pending:
                    break
                now = self._clock()
                if now >= deadline:
                    break
                can_hedge = any(
                    part.result is None and part.attempts < self.max_attempts
                    for part, _ in pending.values()
                )
                timeout = deadline - now
                if can_hedge and hedge_at > now:
                    timeout = min(timeout, hedge_at - now)
                done, _ = concurrent.futures.wait(
                    list(pending),
                    timeout=timeout,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                for future in done:
                    part, attempt = pending.pop(future)
                    if part.result is not None:
                        continue  # another attempt already won this partition
                    try:
                        part.result = future.result()
                        if attempt > 1 and part.index in hedged_late:
                            wins += 1
                    except Exception as exc:  # noqa: BLE001 — accounted below
                        part.errors.append(exc)
                        if part.attempts < self.max_attempts:
                            retries += 1
                            launch(part, self._spare_lane(part.index))
                if self._clock() >= hedge_at:
                    for part, _ in list(pending.values()):
                        if (
                            part.result is None
                            and part.attempts < self.max_attempts
                        ):
                            hedges += 1
                            hedged_late.add(part.index)
                            launch(part, self._spare_lane(part.index))
            for future in pending:  # deadline hit: whatever is left is lost
                if not future.cancel():
                    abandoned += 1
            with self._lock:
                self.stats.hedges_launched += hedges
                self.stats.hedge_wins += wins
                self.stats.retries += retries
                self.stats.abandoned += abandoned

        succeeded = [p for p in partitions if p.result is not None]
        failed = [p for p in partitions if p.result is None]
        if partitions and not succeeded:
            # Nothing to merge: surface the first real error (or a
            # timeout) so the degradation layer can serve stale.
            for part in failed:
                if part.errors:
                    raise part.errors[0]
            raise TimeoutError(
                f"all {len(partitions)} scatter partitions timed out "
                f"after {self.partition_timeout_s}s"
            )
        with self._lock:
            self.stats.partitions_failed += len(failed)
            if failed:
                self.stats.partial_results += 1

        parts = [p.result for p in succeeded]
        if plan.is_aggregate:
            columns = _merge_aggregates(plan, parts)
        else:
            columns = _merge_rows(plan, parts)
        columns = order_and_limit(plan, columns)
        for arr in columns.values():
            arr.flags.writeable = False

        stats = ExecutionStats()
        for p in parts:
            stats.shards_total += p.stats.shards_total
            stats.shards_pruned += p.stats.shards_pruned
            stats.shards_scanned += p.stats.shards_scanned
            stats.rows_scanned += p.stats.rows_scanned
        for part in failed:
            stats.shards_total += len(part.nodes)
        stats.rows_output = (
            int(next(iter(columns.values())).shape[0]) if columns else 0
        )
        missing = tuple(n for part in failed for n in part.nodes)
        return ScatterResult(
            columns=columns,
            stats=stats,
            partial=bool(failed),
            missing_nodes=missing,
            failed_partitions=len(failed),
            hedges_launched=hedges,
            hedge_wins=wins,
            retries=retries,
        )

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)
