"""Live-archive cache coherence (ISSUE 6 satellite 4).

Regression battery for the stale-result bug: before v3 the engine's LRU
and the telemetry server could keep serving results computed against an
archive state that an ingest commit had already replaced.  The fix keys
everything on the manifest fingerprint (which changes on *every*
commit) and evicts dead entries on the fingerprint transition; these
tests prove ``/query`` answers change after an ingest commit.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.logs.ingest import LiveArchive
from repro.query import ArchiveSource, Query, QueryCache, QueryEngine
from repro.server import TelemetryServer, run_in_thread

from ..logs.test_ingest import node_batch

ERRORS_BY_NODE = Query.from_dict(
    {
        "filters": [{"column": "kind", "op": "eq", "value": 1}],
        "group_by": ["node"],
        "aggregates": [{"fn": "count"}],
    }
)


def counts_of(result) -> dict[str, int]:
    return dict(
        zip(
            result.columns["node"].tolist(),
            result.columns["count"].tolist(),
        )
    )


@pytest.fixture()
def live(tmp_path):
    archive = LiveArchive.create(tmp_path / "arch")
    archive.append_batch({"b0": node_batch("01-01", n_errors=4)})
    return archive


class TestQueryCacheInvalidate:
    def test_invalidate_drops_only_foreign_fingerprints(self):
        cache = QueryCache()
        cache.put(("fp-old", "plan-a"), "stale-a")
        cache.put(("fp-old", "plan-b"), "stale-b")
        cache.put(("fp-new", "plan-a"), "fresh")
        dropped = cache.invalidate("fp-new")
        assert dropped == 2
        assert cache.stats.invalidations == 2
        assert cache.get(("fp-new", "plan-a")) == "fresh"
        assert cache.get(("fp-old", "plan-a")) is None
        assert len(cache) == 1


class TestEngineSeesIngest:
    def test_results_change_after_ingest_commit(self, live):
        engine = QueryEngine(ArchiveSource(live.directory))
        first = engine.execute(ERRORS_BY_NODE)
        assert counts_of(first) == {"01-01": 4}

        live.append_batch(
            {
                "b1": node_batch("01-01", n_errors=2, t0=50.0),
                "b2": node_batch("01-02", n_errors=3, t0=60.0),
            }
        )

        second = engine.execute(ERRORS_BY_NODE)
        assert not second.stats.cache_hit  # stale entry was NOT served
        assert counts_of(second) == {"01-01": 6, "01-02": 3}
        assert engine.cache.stats.invalidations >= 1

        third = engine.execute(ERRORS_BY_NODE)
        assert third.stats.cache_hit  # the new state caches normally
        assert counts_of(third) == counts_of(second)

    def test_compaction_commit_also_rolls_the_cache_key(self, live):
        engine = QueryEngine(ArchiveSource(live.directory))
        live.append_batch({"b1": node_batch("01-01", n_errors=2, t0=50.0)})
        before = engine.execute(ERRORS_BY_NODE)
        live.compact()
        after = engine.execute(ERRORS_BY_NODE)
        assert not after.stats.cache_hit  # new fingerprint, cold run
        assert counts_of(after) == counts_of(before)  # same bytes, though

    def test_unwatched_source_keeps_its_snapshot(self, live):
        """watch=False opts out: a pinned source never sees later commits."""
        source = ArchiveSource(live.directory, watch=False)
        engine = QueryEngine(source)
        fingerprint = source.fingerprint()
        first = engine.execute(ERRORS_BY_NODE)
        live.append_batch({"b1": node_batch("01-02", n_errors=3, t0=60.0)})
        assert source.fingerprint() == fingerprint
        second = engine.execute(ERRORS_BY_NODE)
        assert second.stats.cache_hit
        assert counts_of(second) == counts_of(first)


class TestServerSeesIngest:
    def http_get(self, url):
        with urllib.request.urlopen(url, timeout=10) as response:
            return json.loads(response.read())

    def http_post(self, url, payload):
        body = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(url, data=body, method="POST")
        with urllib.request.urlopen(request, timeout=10) as response:
            return json.loads(response.read())

    def test_query_endpoint_serves_live_data(self, live):
        server = TelemetryServer(str(live.directory), shard_workers=0)
        handle = run_in_thread(server)
        try:
            plan = {
                "filters": [{"column": "kind", "op": "eq", "value": 1}],
                "group_by": ["node"],
                "aggregates": [{"fn": "count"}],
            }
            first = self.http_post(handle.address + "/query", plan)
            assert dict(
                zip(first["columns"]["node"], first["columns"]["count"])
            ) == {"01-01": 4}
            health = self.http_get(handle.address + "/health")
            assert health["generation"] == 1

            live.append_batch({"b1": node_batch("01-02", n_errors=3, t0=60.0)})

            second = self.http_post(handle.address + "/query", plan)
            assert not second["stats"]["cache_hit"]
            assert dict(
                zip(second["columns"]["node"], second["columns"]["count"])
            ) == {"01-01": 4, "01-02": 3}

            refreshed = self.http_get(handle.address + "/health")
            assert refreshed["generation"] == 2
            assert refreshed["fingerprint"] != health["fingerprint"]
            assert refreshed["nodes"] == 2

            metrics = self.http_get(handle.address + "/metrics")
            assert metrics["cache"]["invalidations"] >= 1
        finally:
            handle.stop()
