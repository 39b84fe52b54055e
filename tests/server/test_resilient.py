"""Graceful degradation: breaker, retries, stale-while-revalidate."""

from __future__ import annotations

import pytest

from repro.chaos import (
    ChaosSource,
    IoChaosPlan,
    IoFaultRule,
    reset_reads_on,
    torn_read_on,
    wedge_reads_on,
)
from repro.core.errors import ShardCorruptError, SourceUnavailableError
from repro.query import (
    ArchiveSource,
    CircuitBreaker,
    Query,
    QueryEngine,
    ReadRetryPolicy,
    ResilientExecutor,
    ResilientSource,
    StaleResultCache,
)
from repro.query.plan import Aggregate

from .conftest import COUNT_PLAN, FakeClock, get, post, serving

PLAN = Query(group_by=("node",), aggregates=(Aggregate("count"),))


def all_attempts(lo: int, hi: int = 400) -> tuple[int, ...]:
    return tuple(range(lo, hi))


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 1
        assert not breaker.allow()
        assert breaker.rejections == 1

    def test_half_open_probe_and_close(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=2.0, clock=clock
        )
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.retry_after_s() == pytest.approx(2.0)
        clock.advance(2.0)
        assert breaker.state == "half_open"
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # concurrent callers still rejected
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_backs_off_exponentially(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1,
            reset_timeout_s=1.0,
            backoff_factor=2.0,
            max_reset_timeout_s=3.0,
            clock=clock,
        )
        breaker.record_failure()  # open, timeout 1s
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()  # probe failed -> timeout 2s
        assert breaker.retry_after_s() == pytest.approx(2.0)
        clock.advance(2.0)
        assert breaker.allow()
        breaker.record_failure()  # probe failed -> capped at 3s
        assert breaker.retry_after_s() == pytest.approx(3.0)
        clock.advance(3.0)
        assert breaker.allow()
        breaker.record_success()  # recovery resets to the base timeout
        breaker.record_failure()
        assert breaker.retry_after_s() == pytest.approx(1.0)


class TestReadRetryPolicy:
    def test_backoff_is_capped(self):
        policy = ReadRetryPolicy(
            retries=5, backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.3
        )
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(3) == pytest.approx(0.3)
        assert policy.backoff_s(4) == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReadRetryPolicy(retries=-1)


class TestResilientSource:
    def make(self, golden_dir, plan: IoChaosPlan, **kw):
        chaos = ChaosSource(ArchiveSource(golden_dir), plan)
        kw.setdefault("retry", ReadRetryPolicy(retries=2, backoff_base_s=0.0))
        return chaos, ResilientSource(chaos, sleep=lambda s: None, **kw)

    def test_retry_cures_one_shot_reset(self, golden_dir):
        chaos, source = self.make(golden_dir, reset_reads_on(None, attempts=(1,)))
        engine = QueryEngine(source)
        result = engine.execute(PLAN, use_cache=False)
        assert result.n_rows > 0
        assert source.stats.retries >= 1
        assert chaos.faults_injected >= 1

    def test_torn_read_is_retried(self, golden_dir):
        _, source = self.make(golden_dir, torn_read_on(None, attempts=(1,)))
        engine = QueryEngine(source)
        assert engine.execute(PLAN, use_cache=False).n_rows > 0

    def test_exhausted_retries_raise_original_error(self, golden_dir):
        _, source = self.make(
            golden_dir,
            torn_read_on(None, attempts=all_attempts(1)),
            breaker=CircuitBreaker(failure_threshold=100),
        )
        with pytest.raises(ShardCorruptError):
            source.load_columns("01-01", {"kind"})
        assert source.stats.exhausted == 1

    def test_breaker_opens_and_fails_fast(self, golden_dir):
        chaos, source = self.make(
            golden_dir,
            reset_reads_on(None, attempts=all_attempts(1)),
            breaker=CircuitBreaker(failure_threshold=3, reset_timeout_s=60.0),
        )
        with pytest.raises((ConnectionResetError, SourceUnavailableError)):
            source.load_columns("01-01", {"kind"})
        reads_after_failure = chaos.attempts("01-01")
        with pytest.raises(SourceUnavailableError) as info:
            source.load_columns("01-01", {"kind"})
        # Fail-fast: the sick source was not touched again.
        assert chaos.attempts("01-01") == reads_after_failure
        assert info.value.retry_after_s == pytest.approx(60.0, abs=1.0)

    def test_wedged_read_times_out_and_is_abandoned(self, golden_dir):
        chaos = ChaosSource(
            ArchiveSource(golden_dir),
            wedge_reads_on(None, attempts=(1,), wedge_seconds=2.0),
        )
        source = ResilientSource(
            chaos,
            retry=ReadRetryPolicy(retries=1, backoff_base_s=0.0),
            read_timeout_s=0.2,
            sleep=lambda s: None,
        )
        try:
            # Attempt 1 wedges and is abandoned; attempt 2 is clean.
            out = source.load_columns("01-01", {"kind"})
            assert "kind" in out
            assert source.stats.read_timeouts == 1
            assert source.stats.abandoned_reads == 1
        finally:
            source.close()


class TestStaleResultCache:
    def test_bounded_staleness(self):
        clock = FakeClock()
        cache = StaleResultCache(clock=clock)
        cache.put("digest", "result")
        clock.advance(10.0)
        hit = cache.get("digest", max_stale_s=30.0)
        assert hit is not None
        assert hit.result == "result"
        assert hit.age_s == pytest.approx(10.0)
        clock.advance(25.0)
        assert cache.get("digest", max_stale_s=30.0) is None  # expired

    def test_lru_bound(self):
        cache = StaleResultCache(max_entries=2, clock=FakeClock())
        for key in ("a", "b", "c"):
            cache.put(key, key)
        assert cache.get("a", 10.0) is None
        assert cache.get("c", 10.0) is not None


class TestResilientExecutor:
    class _FlakyEngine:
        def __init__(self):
            self.fail = False

        def execute(self, plan):
            if self.fail:
                raise ConnectionResetError("storage down")
            return "fresh-result"

    def test_serves_stale_flagged_on_failure(self):
        engine = self._FlakyEngine()
        executor = ResilientExecutor(engine, max_stale_s=300.0)
        outcome = executor.execute(PLAN)
        assert not outcome.degraded
        engine.fail = True
        degraded = executor.execute(PLAN)
        assert degraded.degraded and degraded.stale
        assert degraded.result == "fresh-result"
        assert degraded.stale_age_s is not None
        assert "ConnectionResetError" in degraded.reason
        assert executor.stats.served_stale == 1

    def test_reraises_without_fallback(self):
        engine = self._FlakyEngine()
        engine.fail = True
        executor = ResilientExecutor(engine)
        with pytest.raises(ConnectionResetError):
            executor.execute(PLAN)
        assert executor.stats.stale_misses == 1


class TestServerDegradation:
    def test_stale_while_revalidate_over_http(self, golden_dir):
        # Reads succeed once per node (warming the stale cache), then
        # fail persistently: the server must keep answering, flagged.
        source = ChaosSource(
            ArchiveSource(golden_dir),
            reset_reads_on(None, attempts=all_attempts(2)),
        )
        with serving(
            source,
            read_retries=1,
            breaker_failure_threshold=3,
            breaker_reset_timeout_s=60.0,
            max_stale_s=300.0,
        ) as handle:
            status, fresh, _ = post(handle, "/query", COUNT_PLAN)
            assert status == 200
            assert fresh["degraded"] is False
            # The live path is now broken; engine cache still answers
            # correctly (fingerprint unchanged), so bypass it with a
            # fresh plan after poisoning... instead clear it:
            handle.server.engine.cache.clear()
            status, stale, _ = post(handle, "/query", COUNT_PLAN)
            assert status == 200
            assert stale["degraded"] is True
            assert "degraded_reason" in stale
            assert stale["columns"] == fresh["columns"]
            _, metrics, _ = get(handle, "/metrics")
            assert metrics["resilience"]["degrade"]["served_stale"] >= 1

    def test_breaker_open_answers_503_with_retry_after(self, golden_dir):
        source = ChaosSource(
            ArchiveSource(golden_dir),
            reset_reads_on(None, attempts=all_attempts(1)),
        )
        with serving(
            source,
            read_retries=0,
            breaker_failure_threshold=1,
            breaker_reset_timeout_s=60.0,
        ) as handle:
            status, payload, _ = post(handle, "/query", COUNT_PLAN)
            assert status == 503  # first failure, nothing stale
            status, payload, headers = post(
                handle, "/query", dict(COUNT_PLAN, limit=1)
            )
            assert status == 503
            assert int(headers["Retry-After"]) >= 1
            _, health, _ = get(handle, "/health")
            assert health["status"] == "degraded"
            assert health["breaker"] == "open"
            _, metrics, _ = get(handle, "/metrics")
            assert metrics["resilience"]["breaker"]["state"] == "open"
            assert metrics["resilience"]["unavailable_responses"] >= 2
