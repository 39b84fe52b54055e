"""Deterministic server chaos battery.

One server lives through four weather fronts — healthy, storage down,
slow-and-overloaded, recovered — under concurrent keep-alive load, and
the battery gates on the resilience contract at every step:

* an admitted (200) answer is either fresh or truthfully flagged
  ``degraded`` — ``unflagged_degraded`` must stay zero;
* every shed answer (429/503) carries ``Retry-After``;
* the server never answers 500 for storage weather;
* after the storm, counters drain: nothing in flight, nothing queued,
  the concurrency semaphore restored, connections closed.

The engine result cache is disabled (``max_entries=0``) so storage
faults cannot hide behind a warm cache — only the *stale* cache, whose
hits are flagged, may answer during the outage.
"""

from __future__ import annotations

import time

from repro.chaos import ChaosSource, reset_reads_on, slow_reads
from repro.query import ArchiveSource
from repro.query.cache import QueryCache
from repro.server import run_load

from .conftest import COUNT_PLAN, serving

#: Lenient wall-clock SLO for admitted requests on shared CI runners.
P99_SLO_MS = 2000.0

PLANS = [
    COUNT_PLAN,
    {
        "group_by": ["node"],
        "aggregates": [{"fn": "count"}, {"fn": "mean", "column": "t"}],
    },
    {"project": ["node", "t"], "order_by": ["-t"], "limit": 5},
]


class SwitchableSource:
    """A source whose failure mode the battery flips between phases.

    Mode flips are read by the serving thread mid-flight; the attribute
    write is atomic and every mode maps to a fully-constructed wrapper,
    so a request straddling a flip sees one mode or the other — never a
    half-built source.
    """

    def __init__(self, path):
        inner = ArchiveSource(path)
        self._modes = {
            "healthy": inner,
            "faulted": ChaosSource(inner, reset_reads_on(None, attempts=None)),
            "slow": ChaosSource(inner, slow_reads(0.05)),
        }
        self.mode = "healthy"

    def _active(self):
        return self._modes[self.mode]

    def fingerprint(self):
        return self._active().fingerprint()

    def shards(self):
        return self._active().shards()

    def load_columns(self, node, columns):
        return self._active().load_columns(node, columns)


def assert_drained(server, *, deadline_s: float = 10.0) -> None:
    """The serving tier must return to quiescence after load stops."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if (
            server._in_flight == 0
            and server._queued == 0
            and server._open_connections == 0
        ):
            break
        time.sleep(0.02)
    assert server._in_flight == 0
    assert server._queued == 0
    assert server._open_connections == 0
    assert server._semaphore._value == server.max_concurrency


def assert_honest(report) -> None:
    assert report.unflagged_degraded == 0
    assert report.retry_after_missing == 0
    assert report.count(500) == 0
    assert report.transport_errors == 0


class TestChaosBattery:
    def test_storage_outage_and_recovery(self, golden_dir):
        source = SwitchableSource(golden_dir)
        with serving(
            source,
            cache=QueryCache(max_entries=0),
            max_concurrency=2,
            max_queue_depth=8,
            read_retries=1,
            breaker_failure_threshold=3,
            breaker_reset_timeout_s=0.2,
            max_stale_s=300.0,
        ) as handle:
            server = handle.server
            host, port = server.host, server.port

            # Phase 1 — healthy: everything fresh, stale cache warms.
            healthy = run_load(
                host, port, PLANS, clients=3, requests_per_client=6
            )
            assert_honest(healthy)
            assert healthy.count(200) == healthy.requests
            assert healthy.degraded == 0
            assert healthy.percentile_ms(99) < P99_SLO_MS

            # Phase 2 — storage down: every read resets.  All plans are
            # warm in the stale cache, so every answer is a flagged
            # degraded 200; the breaker opening mid-phase only makes
            # the fallback faster.
            source.mode = "faulted"
            outage = run_load(
                host, port, PLANS, clients=3, requests_per_client=6
            )
            assert_honest(outage)
            assert outage.count(200) == outage.requests
            assert outage.degraded == outage.requests
            assert outage.stale == outage.requests

            # Phase 3 — slow storage under heavy fan-in: the queue
            # overflows and sheds honestly instead of melting down.
            source.mode = "slow"
            overload = run_load(
                host, port, PLANS, clients=8, requests_per_client=4
            )
            assert_honest(overload)
            assert overload.count(200) + overload.shed == overload.requests

            # Phase 4 — recovery: once the breaker's backoff elapses a
            # probe succeeds and service returns to fresh answers.
            source.mode = "healthy"
            deadline = time.monotonic() + 10.0
            fresh_again = False
            while time.monotonic() < deadline and not fresh_again:
                probe = run_load(
                    host, port, PLANS, clients=1, requests_per_client=3
                )
                fresh_again = (
                    probe.count(200) == probe.requests and probe.degraded == 0
                )
                if not fresh_again:
                    time.sleep(0.2)
            assert fresh_again
            recovered = run_load(
                host, port, PLANS, clients=3, requests_per_client=6
            )
            assert_honest(recovered)
            assert recovered.count(200) == recovered.requests
            assert recovered.degraded == 0

            assert_drained(server)
            assert server._shed_overload + server._shed_rate_limited >= 0

    def test_rate_limited_load_sheds_with_retry_after(self, golden_dir):
        with serving(
            golden_dir, rate_limit_qps=1.0, rate_limit_burst=2
        ) as handle:
            report = run_load(
                handle.server.host,
                handle.server.port,
                [COUNT_PLAN],
                clients=2,
                requests_per_client=8,
            )
            assert_honest(report)
            assert report.count(429) >= 1
            assert report.count(200) >= 2  # the burst was admitted
            assert_drained(handle.server)
