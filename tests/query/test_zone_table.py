"""Zone tables on live archives with fleet-size segments.

An L0 segment over more than ``NODE_ZONE_LIMIT`` nodes carries only an
aggregate zone in the manifest; the source derives its exact per-node
zones from the rows.  So a live archive prunes, counts and answers
exactly like its compacted form, ``/health`` reports its records, and
the decoded segments survive the reloads that later commits cause.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.logs.columnar import (
    KIND_END,
    KIND_ERROR,
    KIND_START,
    ColumnarArchive,
    RecordColumns,
    compute_zone_map,
    read_manifest,
)
from repro.logs.ingest import NODE_ZONE_LIMIT, LiveArchive, compact_archive
from repro.query import ArchiveSource, Query, QueryEngine, ZoneTable
from repro.server import TelemetryServer, run_in_thread

N_NODES = 300
NAMES = [f"{b:02d}-{s:02d}" for b in range(1, 63) for s in range(1, 16)][:N_NODES]
WINDOWS = 4
WINDOW_HOURS = 24.0
COUNTERS = ("shards_total", "shards_pruned", "shards_scanned", "rows_scanned", "rows_output")
TABLE_COLUMNS = (
    "n_records", "known", "t_lo", "t_hi", "n_temp", "temp_lo", "temp_hi",
    "kinds", "bits_lo", "bits_hi", "has_bits",
)


def fleet_window(names: list[str], t_base: float) -> RecordColumns:
    """START, 0-2 ERRORs and END per node, node k late in the window by k."""
    per = 2 + np.arange(len(names)) % 3
    code = np.repeat(np.arange(len(names)), per)
    pos = np.arange(int(per.sum())) - np.repeat(np.cumsum(per) - per, per)
    row = np.arange(code.shape[0])
    kind = np.where(pos == 0, KIND_START, KIND_ERROR)
    kind = np.where(pos == per[code] - 1, KIND_END, kind).astype(np.uint8)
    error = kind == KIND_ERROR
    flips = np.where(row % 7 == 0, 3, 1).astype(np.uint32) << (row % 30).astype(np.uint32)
    expected = np.where(error, 0xFFFFFFFF, 0).astype(np.uint32)
    return RecordColumns(
        kind=kind,
        t=t_base + WINDOW_HOURS * code / len(names) + 0.01 * pos,
        temp=np.where(row % 5 == 0, np.nan, 30.0 + row % 40),
        mb=np.where(kind == KIND_START, 3072, 0).astype(np.int64),
        va=np.where(error, 4 * row, 0).astype(np.int64),
        pp=np.where(error, row // 1024, 0).astype(np.int64),
        expected=expected,
        actual=np.where(error, expected ^ flips, expected).astype(np.uint32),
        rep=np.where(error, 1 + row % 5, 0).astype(np.int64),
        node_code=code.astype(np.int32),
        node_names=list(names),
    )


def window_plans() -> list[Query]:
    plans = []
    for lo, hi in ((0.0, 96.0), (30.0, 33.0), (50.5, 50.7), (71.9, 80.0)):
        window = [
            {"column": "t", "op": "ge", "value": lo},
            {"column": "t", "op": "lt", "value": hi},
        ]
        plans.append(Query.from_dict({
            "filters": window + [{"column": "kind", "op": "eq", "value": KIND_ERROR}],
            "group_by": ["node"],
            "aggregates": [{"fn": "count"}, {"fn": "sum", "column": "rep"}],
        }))
        plans.append(Query.from_dict({
            "filters": window,
            "project": ["t", "node", "kind", "temp", "actual"],
            "order_by": ["-t"],
            "limit": 200,
        }))
    return plans


@pytest.fixture()
def fleet(tmp_path) -> LiveArchive:
    live = LiveArchive.create(tmp_path / "arch")
    for window in range(WINDOWS):
        live.append_batch(
            {f"w{window}": fleet_window(NAMES, t_base=WINDOW_HOURS * window)}
        )
    return live


def run_plans(path) -> list:
    engine = QueryEngine(ArchiveSource(path))
    return [engine.execute(plan, use_cache=False) for plan in window_plans()]


class TestFleetSegments:
    def test_segments_are_over_the_node_zone_limit(self, fleet):
        entries = read_manifest(fleet.directory)["shards"]
        assert len(entries) == WINDOWS
        assert all(entry["n_nodes"] > NODE_ZONE_LIMIT for entry in entries)
        assert all("node_zones" not in entry for entry in entries)

    def test_derived_zones_equal_compute_zone_map(self, fleet):
        table = ArchiveSource(fleet.directory).shards()
        archive = ColumnarArchive.load(fleet.directory)
        reference = ZoneTable.from_zone_maps(
            archive.nodes,
            [compute_zone_map(archive.columns(node)) for node in archive.nodes],
        )
        assert table.nodes == reference.nodes == tuple(NAMES)
        assert (table.n_parts == WINDOWS).all()
        for name in TABLE_COLUMNS:
            assert np.array_equal(
                getattr(table, name), getattr(reference, name), equal_nan=True
            ), name

    def test_results_and_counters_survive_compaction(self, fleet):
        before = run_plans(fleet.directory)
        live_table = ArchiveSource(fleet.directory).shards()
        compact_archive(fleet.directory)
        assert all(
            "node_zones" in entry
            for entry in read_manifest(fleet.directory)["shards"]
        )
        after = run_plans(fleet.directory)
        assert sum(r.stats.shards_pruned for r in before) > 0
        for plan, a, b in zip(window_plans(), before, after):
            assert a.columns.keys() == b.columns.keys()
            for column in a.columns:
                xa, xb = a.columns[column], b.columns[column]
                assert xa.dtype == xb.dtype
                assert np.array_equal(
                    xa, xb, equal_nan=xa.dtype.kind == "f"
                ), (plan, column)
            for counter in COUNTERS:
                assert getattr(a.stats, counter) == getattr(b.stats, counter), (
                    plan, counter,
                )
        compacted = ArchiveSource(fleet.directory).shards()
        for name in TABLE_COLUMNS:
            assert np.array_equal(
                getattr(live_table, name), getattr(compacted, name), equal_nan=True
            ), name

    def test_a_commit_costs_one_segment_read(self, fleet):
        source = ArchiveSource(fleet.directory)
        engine = QueryEngine(source)
        plan = window_plans()[1]  # every row of the archive
        first = engine.execute(plan)
        assert first.stats.shards_scanned == N_NODES
        reads = source.io.shards_read
        assert reads == WINDOWS
        fleet.append_batch({"late": fleet_window(NAMES, t_base=1.0)})
        second = engine.execute(plan)
        assert not second.stats.cache_hit
        assert source.io.shards_read == reads + 1

    def test_reload_after_compaction_unlinked_the_snapshot(self, fleet):
        source = ArchiveSource(fleet.directory)
        compact_archive(fleet.directory)
        table = source.shards()
        assert (table.n_parts == 1).all()
        assert int(table.n_records.sum()) == read_manifest(fleet.directory)["n_records"]


def test_health_reports_records_of_a_live_archive(fleet):
    handle = run_in_thread(TelemetryServer(fleet.directory))
    try:
        def records() -> int:
            with urllib.request.urlopen(handle.address + "/health", timeout=10) as r:
                return json.loads(r.read())["records"]

        expected = read_manifest(fleet.directory)["n_records"]
        assert expected > 0
        assert records() == expected
        compact_archive(fleet.directory)
        assert records() == expected
    finally:
        handle.stop()


def test_concurrent_queries_across_commits_keep_the_caches_consistent(fleet):
    """Readers on a shared source while a writer commits: no read fails,
    answers stay between the first and the last snapshot's, the segment
    cache's byte count stays exact, and the final answer is complete.

    (A query that overlaps a reload may mix two snapshots: it prunes
    with one zone table but reads later nodes through the new manifest,
    so its answer can fall between two snapshots' totals.)"""
    source = ArchiveSource(fleet.directory)
    plan = Query.from_dict({
        "filters": [{"column": "kind", "op": "eq", "value": KIND_ERROR}],
        "aggregates": [{"fn": "count"}],
    })
    errors_per_window = int((fleet_window(NAMES, 0.0).kind == KIND_ERROR).sum())
    totals = {errors_per_window * w for w in range(WINDOWS, WINDOWS + 4)}
    seen: list[int] = []
    failures: list[BaseException] = []
    stop = threading.Event()

    def reader() -> None:
        engine = QueryEngine(source)
        try:
            while not stop.is_set():
                seen.append(int(engine.execute(plan).column("count")[0]))
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        for window in range(WINDOWS, WINDOWS + 3):
            fleet.append_batch(
                {f"w{window}": fleet_window(NAMES, t_base=WINDOW_HOURS * window)}
            )
        stop.set()
        for thread in readers:
            thread.join(timeout=60)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not failures, failures
    assert seen and min(totals) <= min(seen) and max(seen) <= max(totals)
    final = QueryEngine(source).execute(plan).column("count")[0]
    assert final == max(totals)
    assert source._segment_bytes == sum(s.nbytes for s in source._segments.values())


def test_concurrent_shard_decodes_survive_collector_finalizers(staggered_dir):
    """Readers decoding per-node shards while collections run Python
    finalizers: ``np.load`` parses each header with ``ast.literal_eval``,
    whose recursion counter CPython 3.11 shares between threads, so
    unserialized decodes die with ``SystemError``."""

    class Cyclic:
        def __init__(self):
            self.me = self  # only the cycle collector frees it

        def __del__(self):
            sum(range(50))

    source = ArchiveSource(staggered_dir)
    failures: list[BaseException] = []

    def reader(node: str) -> None:
        deadline = time.perf_counter() + 1.0
        try:
            while time.perf_counter() < deadline:
                Cyclic()
                source.load_columns(node, {"kind", "t"})
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [
            threading.Thread(target=reader, args=(node,))
            for node in list(source.shards().nodes)[:4]
        ]
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not failures, failures
