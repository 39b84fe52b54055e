"""Telemetry-server tests: endpoints, errors, concurrency bound, cache.

The server runs on a background thread (``run_in_thread``) against the
saved golden archive; requests go through a real TCP socket via
urllib so the HTTP layer (request line, headers, Content-Length,
Connection: close) is exercised end to end.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.query import ArchiveSource
from repro.server import TelemetryServer, run_in_thread

QUERY_PLAN = {
    "filters": [{"column": "kind", "op": "eq", "value": 1}],
    "group_by": ["node"],
    "aggregates": [{"fn": "count"}],
}


def http_get(url: str) -> tuple[int, dict]:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def http_post(url: str, payload) -> tuple[int, dict]:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=body, method="POST")
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def error_status(fn) -> tuple[int, dict]:
    try:
        fn()
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())
    raise AssertionError("expected an HTTP error")


@pytest.fixture(scope="module")
def handle(golden_dir):
    server = TelemetryServer(golden_dir, max_concurrency=4, request_timeout_s=10.0)
    handle = run_in_thread(server)
    yield handle
    handle.stop()


class TestEndpoints:
    def test_health(self, handle):
        status, body = http_get(handle.address + "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["nodes"] == 4
        assert body["zone_maps"] == 4

    def test_query_roundtrip(self, handle):
        status, body = http_post(handle.address + "/query", QUERY_PLAN)
        assert status == 200
        counts = dict(zip(body["columns"]["node"], body["columns"]["count"]))
        assert counts == {"01-01": 9, "01-02": 4, "63-15": 10}
        assert body["stats"]["shards_pruned"] >= 1  # 02-07 has no errors

    def test_warm_cache_hit_without_shard_io(self, handle):
        plan = {
            "filters": [{"column": "kind", "op": "eq", "value": 1}],
            "aggregates": [{"fn": "count"}, {"fn": "max", "column": "t"}],
        }
        _, cold = http_post(handle.address + "/query", plan)
        io_before = handle.server.engine.source.io.shards_read
        _, warm = http_post(handle.address + "/query", plan)
        assert not cold["stats"]["cache_hit"]
        assert warm["stats"]["cache_hit"]
        assert warm["columns"] == cold["columns"]
        assert handle.server.engine.source.io.shards_read == io_before

    def test_node_errors(self, handle):
        status, body = http_get(handle.address + "/nodes/01-01/errors?limit=3")
        assert status == 200
        assert body["node"] == "01-01"
        assert body["n_rows"] == 3
        assert body["columns"]["t"] == sorted(body["columns"]["t"])
        assert set(body["columns"]) >= {"t", "expected", "actual", "n_bits"}

    def test_metrics(self, handle):
        http_get(handle.address + "/health")
        status, body = http_get(handle.address + "/metrics")
        assert status == 200
        assert body["queries_run"] >= 1
        assert 0.0 <= body["cache"]["hit_rate"] <= 1.0
        assert body["endpoints"]["GET /health"]["requests"] >= 1
        assert body["endpoints"]["POST /query"]["errors"] >= 0
        assert body["io"]["shards_read"] >= 1
        assert body["peak_in_flight"] <= handle.server.max_concurrency


class TestErrors:
    def test_unknown_path(self, handle):
        status, body = error_status(lambda: http_get(handle.address + "/nope"))
        assert status == 404
        assert "no such path" in body["error"]

    def test_unknown_node(self, handle):
        status, body = error_status(
            lambda: http_get(handle.address + "/nodes/99-99/errors")
        )
        assert status == 404
        assert "99-99" in body["error"]

    def test_bad_plan(self, handle):
        status, body = error_status(
            lambda: http_post(handle.address + "/query", {"select": ["t"]})
        )
        assert status == 400
        assert "unknown plan fields" in body["error"]

    def test_invalid_json_body(self, handle):
        request = urllib.request.Request(
            handle.address + "/query", data=b"{nope", method="POST"
        )
        status, body = error_status(
            lambda: urllib.request.urlopen(request, timeout=10)
        )
        assert status == 400
        assert "not valid JSON" in body["error"]

    def test_wrong_method(self, handle):
        status, _ = error_status(lambda: http_get(handle.address + "/query"))
        assert status == 405

    def test_bad_limit(self, handle):
        status, _ = error_status(
            lambda: http_get(handle.address + "/nodes/01-01/errors?limit=-3")
        )
        assert status == 400


class _SlowSource:
    """An ArchiveSource whose shard reads stall, to exercise timeouts
    and the concurrency bound."""

    def __init__(self, inner, delay_s: float):
        self._inner = inner
        self._delay_s = delay_s
        self.io = inner.io

    def fingerprint(self):
        return self._inner.fingerprint()

    def shards(self):
        return self._inner.shards()

    def load_columns(self, node, names):
        time.sleep(self._delay_s)
        return self._inner.load_columns(node, names)


class TestConcurrencyAndTimeouts:
    def test_concurrency_is_bounded(self, golden_dir):
        source = _SlowSource(ArchiveSource(golden_dir), delay_s=0.05)
        server = TelemetryServer(source, max_concurrency=2, request_timeout_s=10.0)
        handle = run_in_thread(server)
        try:
            results: list[int] = []

            def worker(i: int) -> None:
                plan = dict(QUERY_PLAN, limit=i + 1)  # distinct plans: no cache
                status, _ = http_post(handle.address + "/query", plan)
                results.append(status)

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert results == [200] * 8
            assert server._peak_in_flight <= 2
            _, metrics = http_get(handle.address + "/metrics")
            assert metrics["peak_in_flight"] <= 2
        finally:
            handle.stop()

    def test_slow_query_times_out(self, golden_dir):
        source = _SlowSource(ArchiveSource(golden_dir), delay_s=1.0)
        server = TelemetryServer(source, max_concurrency=2, request_timeout_s=0.2)
        handle = run_in_thread(server)
        try:
            status, body = error_status(
                lambda: http_post(handle.address + "/query", QUERY_PLAN)
            )
            assert status == 504
            assert "exceeded" in body["error"]
        finally:
            handle.stop()

    def test_stop_is_idempotent(self, golden_dir):
        server = TelemetryServer(golden_dir)
        handle = run_in_thread(server)
        handle.stop()
        handle.stop()


class TestStopReleases:
    def test_stopped_server_holds_no_results_segments_or_read_threads(
        self, tmp_path
    ):
        from repro.logs.ingest import LiveArchive

        from ..logs.test_ingest import node_batch

        live = LiveArchive.create(tmp_path / "arch")
        live.append_batch(
            {"a": node_batch("01-01"), "b": node_batch("01-02", t0=30.0)}
        )
        server = TelemetryServer(live.directory, read_timeout_s=5.0)
        handle = run_in_thread(server)
        try:
            status, _ = http_post(handle.address + "/query", QUERY_PLAN)
            assert status == 200
            archive = server.resilient_source._inner
            readers = list(server.resilient_source._pool._threads)
            assert readers and archive._segments
            assert len(server.engine.cache) == len(server.executor.stale) == 1
        finally:
            handle.stop()
        assert len(server.engine.cache) == 0
        assert len(server.executor.stale) == 0
        assert not archive._segments and not archive._parts
        for thread in readers:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in readers)
