"""Admission control: token buckets, rate limiting, shedding, keep-alive."""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.chaos import ChaosSource, slow_reads
from repro.query import ArchiveSource
from repro.server import ClientRateLimiter, TokenBucket, retry_after_header

from .conftest import COUNT_PLAN, FakeClock, get, post, serving


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_qps=2.0, burst=3, clock=clock)
        assert [bucket.try_acquire()[0] for _ in range(3)] == [True] * 3
        ok, retry_after = bucket.try_acquire()
        assert not ok
        assert retry_after == pytest.approx(0.5)  # 1 token at 2 qps
        clock.advance(0.5)
        assert bucket.try_acquire()[0]

    def test_tokens_cap_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_qps=10.0, burst=2, clock=clock)
        clock.advance(60.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_qps=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate_qps=1.0, burst=0)

    def test_retry_after_header_rounds_up(self):
        assert retry_after_header(0.01) == "1"
        assert retry_after_header(1.2) == "2"
        assert retry_after_header(3.0) == "3"


class TestClientRateLimiter:
    def test_clients_are_independent(self):
        clock = FakeClock()
        limiter = ClientRateLimiter(1.0, 1, clock=clock)
        assert limiter.admit("a")[0]
        assert not limiter.admit("a")[0]
        assert limiter.admit("b")[0]  # b has its own bucket
        assert limiter.admitted == 2
        assert limiter.rejected == 1

    def test_lru_bound_evicts_idle_clients(self):
        clock = FakeClock()
        limiter = ClientRateLimiter(1.0, 1, max_clients=2, clock=clock)
        for key in ("a", "b", "c"):
            limiter.admit(key)
        assert len(limiter) == 2  # "a" evicted
        # An evicted client returns with a fresh burst: benign.
        assert limiter.admit("a")[0]


class TestServerRateLimit:
    def test_per_client_429_with_retry_after(self, golden_dir):
        with serving(
            golden_dir, rate_limit_qps=0.01, rate_limit_burst=2
        ) as handle:
            a = {"X-Client-Id": "client-a"}
            assert post(handle, "/query", COUNT_PLAN, headers=a)[0] == 200
            assert post(handle, "/query", COUNT_PLAN, headers=a)[0] == 200
            status, payload, headers = post(
                handle, "/query", COUNT_PLAN, headers=a
            )
            assert status == 429
            assert "rate limit" in payload["error"]
            assert int(headers["Retry-After"]) >= 1
            # A different client is not affected.
            b = {"X-Client-Id": "client-b"}
            assert post(handle, "/query", COUNT_PLAN, headers=b)[0] == 200
            # Operator endpoints bypass admission entirely.
            status, metrics, _ = get(handle, "/metrics")
            assert status == 200
            assert metrics["admission"]["shed_rate_limited"] == 1
            assert metrics["admission"]["rate_limiter"]["rejected"] == 1

    def test_rate_limit_off_by_default(self, golden_dir):
        with serving(golden_dir) as handle:
            assert handle.server.limiter is None
            for _ in range(5):
                assert post(handle, "/query", COUNT_PLAN)[0] == 200


class TestQueueShedding:
    def test_503_when_queue_is_full(self, golden_dir):
        # Every shard read stalls, so one slow query pins the single
        # semaphore slot while probes arrive.
        source = ChaosSource(ArchiveSource(golden_dir), slow_reads(0.3))
        with serving(
            source,
            max_concurrency=1,
            max_queue_depth=0,
            request_timeout_s=30.0,
        ) as handle:
            results: list[tuple[int, dict, dict]] = []

            def slow_query():
                results.append(post(handle, "/query", COUNT_PLAN))

            pinner = threading.Thread(target=slow_query)
            pinner.start()
            # Probe only once the pinner holds the single slot, so the
            # outcome is deterministic.
            deadline = time.monotonic() + 5.0
            while handle.server._in_flight < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert handle.server._in_flight == 1
            status, payload, headers = post(
                handle, "/query", dict(COUNT_PLAN, limit=1)
            )
            pinner.join(timeout=30)
            assert status == 503
            assert "overloaded" in payload["error"]
            assert headers["Retry-After"] == "1"
            assert results and results[0][0] == 200
            _, metrics, _ = get(handle, "/metrics")
            assert metrics["admission"]["shed_overload"] >= 1

    def test_queue_admits_up_to_depth(self, golden_dir):
        # Default depth comfortably queues a small burst: all succeed.
        with serving(golden_dir, max_concurrency=1) as handle:
            statuses: list[int] = []

            def worker(i: int) -> None:
                status, _, _ = post(handle, "/query", dict(COUNT_PLAN, limit=i + 1))
                statuses.append(status)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert statuses == [200] * 6


class TestKeepAlive:
    def test_connection_reuse_counted(self, golden_dir):
        with serving(golden_dir) as handle:
            conn = http.client.HTTPConnection(
                handle.server.host, handle.server.port, timeout=10
            )
            try:
                for _ in range(3):
                    conn.request("GET", "/health")
                    response = conn.getresponse()
                    assert response.status == 200
                    response.read()
                    assert response.getheader("Connection") == "keep-alive"
                conn.request("GET", "/metrics")
                response = conn.getresponse()
                metrics = json.loads(response.read())
            finally:
                conn.close()
            assert metrics["connections"]["total"] == 1
            assert metrics["connections"]["keepalive_reuse"] == 3

    def test_per_connection_request_cap(self, golden_dir):
        with serving(golden_dir, keepalive_max_requests=2) as handle:
            conn = http.client.HTTPConnection(
                handle.server.host, handle.server.port, timeout=10
            )
            try:
                conn.request("GET", "/health")
                first = conn.getresponse()
                first.read()
                assert first.getheader("Connection") == "keep-alive"
                conn.request("GET", "/health")
                second = conn.getresponse()
                second.read()
                assert second.getheader("Connection") == "close"
            finally:
                conn.close()

    def test_idle_connection_closed_silently(self, golden_dir):
        with serving(golden_dir, keepalive_idle_timeout_s=0.2) as handle:
            conn = http.client.HTTPConnection(
                handle.server.host, handle.server.port, timeout=10
            )
            try:
                conn.request("GET", "/health")
                conn.getresponse().read()
                time.sleep(0.6)  # exceed the idle window
                with pytest.raises(
                    (http.client.HTTPException, ConnectionError, OSError)
                ):
                    conn.request("GET", "/health")
                    conn.getresponse()
            finally:
                conn.close()

    def test_client_requested_close_honored(self, golden_dir):
        with serving(golden_dir) as handle:
            status, _, headers = get(
                handle, "/health", headers={"Connection": "close"}
            )
            assert status == 200
            assert headers["Connection"] == "close"


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"client_read_timeout_s": 0.0},
            {"keepalive_idle_timeout_s": -1.0},
            {"keepalive_max_requests": 0},
            {"max_queue_depth": -1},
            {"rate_limit_qps": 0.0},
            {"request_timeout_s": 0.0},
            {"shard_workers": -1},
            {"shard_workers": 1},
        ],
    )
    def test_bad_kwargs_rejected(self, golden_dir, kwargs):
        from repro.server import TelemetryServer

        with pytest.raises(ValueError):
            TelemetryServer(golden_dir, **kwargs)
