"""Graceful degradation for the query path: breaker, retries, staleness.

The serving tier's failure model (docs/ROBUSTNESS.md, "Serving under
failure") assumes the archive underneath a live query can misbehave —
slow disks, reset connections, torn segments observed mid-compaction,
wedged storage workers — while dashboards keep polling.  This module
provides the three mechanisms the server composes:

* :class:`CircuitBreaker` — classic closed/open/half-open gate with an
  exponentially backed-off reset timeout, so a dead archive is probed,
  not hammered.
* :class:`ResilientSource` — wraps any shard source and gives
  ``load_columns`` bounded retries with exponential backoff, an optional
  per-read timeout (reads run on a small dedicated thread pool so a
  wedged read can be abandoned), and breaker accounting.  When the
  breaker is open, reads fail fast with
  :class:`~repro.core.errors.SourceUnavailableError` instead of touching
  the sick storage at all.
* :class:`StaleResultCache` + :class:`ResilientExecutor` — the
  stale-while-revalidate path: every healthy result is remembered per
  plan digest; when a live execution fails, the last-good result is
  served within a bounded staleness window, explicitly marked degraded
  so a consumer can never mistake it for fresh data.

Everything is clock-injectable (``time.monotonic`` by default — these
are durations, never simulation input) and thread-safe: the server
executes queries on a thread pool.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from ..core.errors import ShardCorruptError, SourceUnavailableError

#: Errors a retry may cure: transport-level failures and corrupt reads
#: (a torn segment observed mid-compaction heals on the next manifest
#: snapshot).  Everything else (plan errors, programming bugs) is not
#: retried.
TRANSIENT_READ_ERRORS = (ConnectionError, TimeoutError, OSError, ShardCorruptError)


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


class CircuitBreaker:
    """Closed / open / half-open breaker over a failure-prone dependency.

    ``failure_threshold`` consecutive failures open the breaker; while
    open, :meth:`allow` rejects instantly for ``reset_timeout_s``.  The
    first caller after the cool-down gets a half-open probe; a probe
    success closes the breaker, a probe failure re-opens it with the
    timeout multiplied by ``backoff_factor`` (capped at
    ``max_reset_timeout_s``), so a persistently dead dependency is
    probed at a geometrically decaying rate.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        reset_timeout_s: float = 1.0,
        backoff_factor: float = 2.0,
        max_reset_timeout_s: float = 60.0,
        clock=time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_s <= 0:
            raise ValueError("reset_timeout_s must be > 0")
        if backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        self.failure_threshold = failure_threshold
        self.base_reset_timeout_s = reset_timeout_s
        self.backoff_factor = backoff_factor
        self.max_reset_timeout_s = max_reset_timeout_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._current_timeout_s = reset_timeout_s
        self._probing = False
        self.opens = 0
        self.rejections = 0
        self.failures = 0
        self.successes = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        if self._state == "open" and (
            self._clock() - self._opened_at >= self._current_timeout_s
        ):
            return "half_open"
        return self._state

    def allow(self) -> bool:
        """May a call proceed right now?  (Counts rejections.)"""
        with self._lock:
            state = self._effective_state()
            if state == "closed":
                return True
            if state == "half_open" and not self._probing:
                self._state = "half_open"
                self._probing = True
                return True
            self.rejections += 1
            return False

    def retry_after_s(self) -> float:
        """Seconds until the next half-open probe (0 when closed)."""
        with self._lock:
            if self._state == "closed":
                return 0.0
            remaining = self._current_timeout_s - (self._clock() - self._opened_at)
            return max(0.0, remaining)

    def record_success(self) -> None:
        with self._lock:
            self.successes += 1
            if self._state == "half_open":
                self._current_timeout_s = self.base_reset_timeout_s
            self._state = "closed"
            self._probing = False
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self.failures += 1
            if self._state == "half_open":
                # Failed probe: back off the next one.
                self._current_timeout_s = min(
                    self._current_timeout_s * self.backoff_factor,
                    self.max_reset_timeout_s,
                )
                self._open()
                return
            self._consecutive_failures += 1
            if (
                self._state == "closed"
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._current_timeout_s = self.base_reset_timeout_s
                self._open()

    def _open(self) -> None:
        self._state = "open"
        self._probing = False
        self._consecutive_failures = 0
        self._opened_at = self._clock()
        self.opens += 1

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "state": self._effective_state(),
                "opens": self.opens,
                "rejections": self.rejections,
                "failures": self.failures,
                "successes": self.successes,
                "reset_timeout_s": self._current_timeout_s,
            }


# ---------------------------------------------------------------------------
# Retrying / timing-out source wrapper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReadRetryPolicy:
    """Retry budget for one shard read (attempts = 1 + retries)."""

    retries: int = 2
    backoff_base_s: float = 0.01
    backoff_factor: float = 2.0
    backoff_max_s: float = 0.5

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")

    def backoff_s(self, attempt: int) -> float:
        """Sleep before retrying after failed attempt number ``attempt``."""
        return min(
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
            self.backoff_max_s,
        )


@dataclass
class ResilienceStats:
    """What the resilient read path absorbed."""

    reads: int = 0
    retries: int = 0
    read_timeouts: int = 0
    abandoned_reads: int = 0
    exhausted: int = 0

    def to_dict(self) -> dict:
        return {
            "reads": self.reads,
            "retries": self.retries,
            "read_timeouts": self.read_timeouts,
            "abandoned_reads": self.abandoned_reads,
            "exhausted": self.exhausted,
        }


class ResilientSource:
    """Shard source with retries, per-read timeouts and a breaker.

    Implements the source protocol over ``inner``.  ``load_columns``
    retries transient failures (:data:`TRANSIENT_READ_ERRORS`) with
    exponential backoff; with ``read_timeout_s`` set, each attempt runs
    on a small dedicated thread pool and is abandoned (counted, the
    thread left to finish) when it exceeds the deadline — the only way
    to bound a wedged blocking read without killing the process.

    The breaker sees every attempt: once it opens, reads fail fast with
    :class:`SourceUnavailableError` carrying the remaining cool-down,
    and the half-open probe is whatever read arrives first after it.
    """

    def __init__(
        self,
        inner,
        *,
        breaker: CircuitBreaker | None = None,
        retry: ReadRetryPolicy | None = None,
        read_timeout_s: float | None = None,
        max_read_threads: int = 4,
        sleep=time.sleep,
    ):
        if read_timeout_s is not None and read_timeout_s <= 0:
            raise ValueError("read_timeout_s must be > 0")
        self._inner = inner
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.retry = retry if retry is not None else ReadRetryPolicy()
        self.read_timeout_s = read_timeout_s
        self.stats = ResilienceStats()
        self._sleep = sleep
        self._max_read_threads = max_read_threads
        self._pool: concurrent.futures.ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    # -- source protocol ---------------------------------------------------

    @property
    def io(self):
        return self._inner.io

    def __getattr__(self, name):
        # Source extras (``manifest``, ``directory``, ...) pass through.
        return getattr(self._inner, name)

    def fingerprint(self) -> str:
        return self._guarded(self._inner.fingerprint)

    def shards(self):
        return self._guarded(self._inner.shards)

    def load_columns(self, node: str, names):
        return self._guarded(self._timed_read, node, names)

    # -- machinery ---------------------------------------------------------

    def _guarded(self, fn, *args):
        if not self.breaker.allow():
            raise SourceUnavailableError(
                "archive source circuit breaker is open",
                retry_after_s=self.breaker.retry_after_s(),
            )
        attempt = 0
        while True:
            attempt += 1
            with self._lock:
                self.stats.reads += 1
            try:
                value = fn(*args)
            except TRANSIENT_READ_ERRORS as exc:
                self.breaker.record_failure()
                if attempt > self.retry.retries:
                    with self._lock:
                        self.stats.exhausted += 1
                    raise
                with self._lock:
                    self.stats.retries += 1
                self._sleep(self.retry.backoff_s(attempt))
                if not self.breaker.allow():
                    raise SourceUnavailableError(
                        "archive source circuit breaker opened mid-retry",
                        retry_after_s=self.breaker.retry_after_s(),
                    ) from exc
                continue
            self.breaker.record_success()
            return value

    def _timed_read(self, node: str, names):
        if self.read_timeout_s is None:
            return self._inner.load_columns(node, names)
        pool = self._read_pool()
        future = pool.submit(self._inner.load_columns, node, set(names))
        try:
            return future.result(timeout=self.read_timeout_s)
        except concurrent.futures.TimeoutError:
            # The read thread is wedged (or starved behind wedged
            # peers); abandon it — it parks until the blocking call
            # returns — and surface a retryable timeout.
            future.cancel()
            with self._lock:
                self.stats.read_timeouts += 1
                self.stats.abandoned_reads += 1
            raise TimeoutError(
                f"shard read for {node!r} exceeded {self.read_timeout_s}s"
            ) from None

    def _read_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=self._max_read_threads,
                    thread_name_prefix="repro-shard-read",
                )
            return self._pool

    def close(self) -> None:
        """Shut the read pool and release what the inner source holds."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()


# ---------------------------------------------------------------------------
# Stale-while-revalidate
# ---------------------------------------------------------------------------


@dataclass
class StaleHit:
    """A last-good result served in place of a failed live execution."""

    result: object
    age_s: float


class StaleResultCache:
    """Last-good query results keyed by plan digest, LRU-bounded.

    Unlike :class:`~repro.query.cache.QueryCache` this cache is keyed by
    the *plan alone*: its whole purpose is to survive archive-state
    transitions (and archive damage) that invalidate the fingerprint-
    keyed cache.  Entries therefore carry their age, and :meth:`get`
    enforces the staleness bound so a consumer can never be served
    arbitrarily old data unflagged.
    """

    def __init__(self, max_entries: int = 32, *, clock=time.monotonic):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._clock = clock
        self._entries: OrderedDict[str, tuple[object, float]] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def put(self, digest: str, result) -> None:
        with self._lock:
            self._entries[digest] = (result, self._clock())
            self._entries.move_to_end(digest)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def get(self, digest: str, max_stale_s: float) -> StaleHit | None:
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                return None
            result, stored_at = entry
            age = self._clock() - stored_at
            if age > max_stale_s:
                del self._entries[digest]
                return None
            return StaleHit(result=result, age_s=age)


@dataclass
class ExecutionOutcome:
    """One resilient execution: the result plus its honesty labels.

    ``degraded`` is True whenever the result is not a fresh answer: the
    last-good result served stale after a live execution failed, with
    ``reason`` and ``stale_age_s`` set alongside it.  A server must
    surface these labels on the wire verbatim.
    """

    result: object
    degraded: bool = False
    reason: str | None = None
    stale_age_s: float | None = None


@dataclass
class DegradeStats:
    served_stale: int = 0
    stale_misses: int = 0

    def to_dict(self) -> dict:
        return {
            "served_stale": self.served_stale,
            "stale_misses": self.stale_misses,
        }


class ResilientExecutor:
    """Execute plans with a stale-while-revalidate fallback.

    Wraps any engine-like object (``execute(plan) -> QueryResult``).  A
    healthy result refreshes the stale cache; a failed live execution
    within ``max_stale_s`` of a last-good result serves that result
    marked degraded; a failure with nothing to fall back on re-raises,
    letting the server map the error to a status code.
    """

    def __init__(
        self,
        engine,
        *,
        stale: StaleResultCache | None = None,
        max_stale_s: float = 300.0,
    ):
        if max_stale_s < 0:
            raise ValueError("max_stale_s must be >= 0")
        self.engine = engine
        self.stale = stale if stale is not None else StaleResultCache()
        self.max_stale_s = max_stale_s
        self.stats = DegradeStats()
        self._lock = threading.Lock()

    def execute(self, plan) -> ExecutionOutcome:
        digest = plan.digest()
        try:
            result = self.engine.execute(plan)
        except SourceUnavailableError as exc:
            return self._fall_back(digest, exc)
        except TRANSIENT_READ_ERRORS as exc:
            # ShardCorruptError rides in here: a torn segment read is a
            # storage fault, not a plan error.
            return self._fall_back(digest, exc)
        self.stale.put(digest, result)
        return ExecutionOutcome(result=result)

    def _fall_back(self, digest: str, exc: Exception) -> ExecutionOutcome:
        hit = self.stale.get(digest, self.max_stale_s)
        if hit is None:
            with self._lock:
                self.stats.stale_misses += 1
            raise exc
        with self._lock:
            self.stats.served_stale += 1
        return ExecutionOutcome(
            result=hit.result,
            degraded=True,
            reason=f"{type(exc).__name__}: {exc}",
            stale_age_s=hit.age_s,
        )
