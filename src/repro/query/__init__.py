"""Embedded analytical query engine over columnar shard archives.

The paper's analyses are predicate-plus-aggregate scans over the raw
error population (errors by node/hour/temperature/bit-count).  This
package answers them without materializing whole archives: a small
logical plan (``scan -> filter -> project -> group-aggregate ->
order/limit``), executed with vectorized NumPy kernels, **per-shard
zone maps** (format v2 manifests, :mod:`repro.logs.columnar`) so shard
files that cannot match a predicate are never read from disk, lazy
per-shard column loading, and an LRU result cache keyed by
``(archive fingerprint, plan digest)``.

See ``docs/QUERY.md`` for the plan language and semantics.
"""

from .cache import QueryCache
from .engine import ExecutionStats, QueryEngine, QueryResult
from .plan import Aggregate, Derive, Predicate, Query, QueryPlanError
from .resilient import (
    CircuitBreaker,
    ExecutionOutcome,
    ReadRetryPolicy,
    ResilientExecutor,
    ResilientSource,
    StaleResultCache,
)
from .scatter import ScatterGatherEngine, ScatterResult
from .source import ArchiveSource, MemorySource, ShardInfo, as_source

__all__ = [
    "Aggregate",
    "ArchiveSource",
    "CircuitBreaker",
    "Derive",
    "ExecutionOutcome",
    "ExecutionStats",
    "MemorySource",
    "Predicate",
    "Query",
    "QueryCache",
    "QueryEngine",
    "QueryPlanError",
    "QueryResult",
    "ReadRetryPolicy",
    "ResilientExecutor",
    "ResilientSource",
    "ScatterGatherEngine",
    "ScatterResult",
    "ShardInfo",
    "StaleResultCache",
    "as_source",
]
