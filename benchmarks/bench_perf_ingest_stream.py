"""Performance bench: fleet-scale streaming ingest in bounded memory.

A sacrificial child process streams a synthetic 100k-node campaign
(REPRO_BENCH_STREAM_NODES overrides the population) through
:class:`repro.logs.ingest.LiveArchive` in group commits, queries the
live archive, LSM-compacts it, and re-queries — then reports its peak
RSS and the store's counters as JSON.  The parent asserts the
acceptance gates:

* the streaming ingest phase stays under a tight RSS ceiling
  (REPRO_BENCH_STREAM_RSS_MB, default 512 MB): commit memory is bounded
  by the flush window, not the fleet;
* the whole run — ingest, live queries, LSM compaction, re-query —
  stays under a total ceiling (REPRO_BENCH_STREAM_TOTAL_RSS_MB, default
  1024 MB).  Compaction's footprint is dominated by the v3 manifest's
  exact per-node zone maps, which scale with fleet size by design;
* the preset query answers, and their pruning counters, are identical
  before and after compaction (live-query parity; the narrow time
  window makes that cover exact per-node pruning of the live archive's
  fleet-size segments), and the error count matches the generator's
  ground truth exactly;
* compaction strictly reduces the part count per node to 1.

Everything lands in ``extra_info`` so the CI stream-smoke job can gate
on the bench JSON.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

N_NODES = int(os.environ.get("REPRO_BENCH_STREAM_NODES", "100000"))
RSS_CEILING_MB = int(os.environ.get("REPRO_BENCH_STREAM_RSS_MB", "512"))
TOTAL_RSS_CEILING_MB = int(
    os.environ.get("REPRO_BENCH_STREAM_TOTAL_RSS_MB", "1024")
)
FLUSH_NODES = 2_500
#: Nodes re-appearing in every commit window (multi-part until compaction).
HOT_NODES = 100

_CHILD = r"""
import json
import resource
import sys

sys.path.insert(0, sys.argv[1])

import numpy as np

from repro.logs.columnar import KIND_ERROR, RecordColumns
from repro.logs.ingest import LiveArchive, compact_archive
from repro.query import ArchiveSource, Query, QueryEngine

out_dir, n_nodes, flush, hot = (
    sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), int(sys.argv[5])
)

ERRORS_BY_HOUR = Query.from_dict({
    "filters": [{"column": "kind", "op": "eq", "value": 1}],
    "derive": [{"name": "hour", "fn": "hour"}],
    "group_by": ["hour"],
    "aggregates": [{"fn": "count"}],
})
TOTALS = Query.from_dict({
    "filters": [{"column": "kind", "op": "eq", "value": 1}],
    "aggregates": [{"fn": "count"}, {"fn": "max", "column": "t"}],
})
# A quarter hour that ~670 cold nodes of 8 commit windows fall into:
# the live digest matches the compacted one only if the live archive's
# 2,600-node segments prune node by node, exactly.
NARROW_WINDOW = Query.from_dict({
    "filters": [
        {"column": "t", "op": "ge", "value": 20.0},
        {"column": "t", "op": "lt", "value": 20.25},
    ],
    "group_by": ["node"],
    "aggregates": [{"fn": "count"}, {"fn": "sum", "column": "rep"}],
})


def window_columns(names, t_base):
    '''One commit window's rows: 3 deterministic errors per node.'''
    per_node = 3
    n = len(names) * per_node
    code = np.repeat(np.arange(len(names), dtype=np.int32), per_node)
    k = np.arange(n, dtype=np.int64)
    return RecordColumns(
        kind=np.full(n, KIND_ERROR, dtype=np.uint8),
        t=t_base + 0.001 * k.astype(np.float64),
        temp=np.where(k % 7 == 0, np.nan, 30.0 + (k % 40)),
        mb=np.zeros(n, dtype=np.int64),
        va=4 * (k % 100_000),
        pp=(k % 100_000) // 1024,
        expected=np.full(n, 0xFFFFFFFF, dtype=np.uint32),
        actual=np.full(n, 0xFFFFFFFF, dtype=np.uint32) ^ np.uint32(1 << 11),
        rep=1 + (k % 5),
        node_code=code,
        node_names=list(names),
    )


def run_presets(path):
    engine = QueryEngine(ArchiveSource(path))
    return {
        "errors_by_hour": engine.execute(ERRORS_BY_HOUR, use_cache=False),
        "totals": engine.execute(TOTALS, use_cache=False),
        "narrow_window": engine.execute(NARROW_WINDOW, use_cache=False),
    }


def digest(results):
    out = {}
    for name, result in results.items():
        out[name] = {
            col: [None if v != v else v for v in arr.tolist()[:10]]
            + [float(np.nansum(arr)) if arr.dtype.kind == "f" else int(arr.sum())]
            if arr.dtype.kind in "fiu" else arr.tolist()[:10]
            for col, arr in result.columns.items()
        }
        out[name]["rows"] = result.n_rows
        out[name]["stats"] = {
            "shards_total": result.stats.shards_total,
            "shards_pruned": result.stats.shards_pruned,
            "shards_scanned": result.stats.shards_scanned,
            "rows_scanned": result.stats.rows_scanned,
        }
    return out


names = [f"n{k:06d}" for k in range(n_nodes)]
hot_names = names[:hot]
live = LiveArchive.create(out_dir)
expected_rows = 0
window = 0
for lo in range(0, n_nodes, flush):
    cold = names[lo : lo + flush]
    cols = window_columns(cold, t_base=float(window))
    extra = window_columns(hot_names, t_base=1000.0 + float(window))
    live.append_batch({
        f"window:{window:05d}": cols,
        f"hot:{window:05d}": extra,
    })
    expected_rows += len(cols) + len(extra)
    window += 1

ingest_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

before = run_presets(out_dir)
total_before = int(before["totals"].columns["count"][0])

parts_before = int(ArchiveSource(out_dir).shards().n_parts.max())

report = compact_archive(out_dir, max_segment_nodes=256)

after = run_presets(out_dir)
parts_after = int(ArchiveSource(out_dir).shards().n_parts.max())

assert total_before == expected_rows, (total_before, expected_rows)
assert digest(before) == digest(after), "live/compacted query divergence"
assert parts_before > 1 and parts_after == 1, (parts_before, parts_after)

print(json.dumps({
    "ingest_rss_mb": ingest_rss_mb,
    "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "n_nodes": n_nodes,
    "n_records": expected_rows,
    "n_commits": window,
    "segments_before": report.entries_before,
    "segments_after": report.entries_after,
    "compaction_components": report.n_components,
    "max_level": report.max_level,
    "max_parts_before": parts_before,
    "max_parts_after": parts_after,
    "generation": report.generation,
    "query_parity": True,
}))
"""


def _stream_once(tmp_dir: str) -> dict:
    child = subprocess.run(
        [
            sys.executable,
            "-c",
            _CHILD,
            SRC,
            tmp_dir,
            str(N_NODES),
            str(FLUSH_NODES),
            str(HOT_NODES),
        ],
        capture_output=True,
        text=True,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_perf_stream_100k_nodes_bounded_rss(benchmark, tmp_path_factory):
    """ISSUE acceptance: a 100k-node streamed campaign commits to disk
    under a fixed RSS ceiling with live-query parity across compaction."""
    counter = iter(range(10))

    def run():
        root = tmp_path_factory.mktemp(f"stream-bench-{next(counter)}")
        return _stream_once(str(root / "archive"))

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert stats["n_nodes"] == N_NODES
    assert stats["query_parity"] is True
    assert stats["max_parts_before"] > 1
    assert stats["max_parts_after"] == 1
    assert stats["ingest_rss_mb"] < RSS_CEILING_MB, (
        f"streaming ingest peaked at {stats['ingest_rss_mb']:.0f} MB RSS "
        f"(ceiling {RSS_CEILING_MB} MB): commit memory is no longer "
        f"bounded by the flush window"
    )
    assert stats["max_rss_mb"] < TOTAL_RSS_CEILING_MB, (
        f"full run peaked at {stats['max_rss_mb']:.0f} MB RSS "
        f"(ceiling {TOTAL_RSS_CEILING_MB} MB)"
    )
    benchmark.extra_info.update(stats)
    benchmark.extra_info["rss_ceiling_mb"] = RSS_CEILING_MB
    benchmark.extra_info["total_rss_ceiling_mb"] = TOTAL_RSS_CEILING_MB
