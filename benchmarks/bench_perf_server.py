"""Performance bench: serving-tier latency and honesty under load.

Drives a live :class:`~repro.server.app.TelemetryServer` over TCP with
the stdlib load generator and records the SLO fields the ``server-chaos``
CI job gates on in the benchmark JSON (``extra_info``):

* ``p99_ms`` of *admitted* requests must stay under ``SLO_P99_MS``;
* ``unflagged_degraded`` must be zero — a stale answer that is not
  flagged ``degraded`` is a lie, and lying is the one failure mode the
  resilience tier may never have.

Two weather fronts are measured: a healthy tier, and a tier surviving a
total storage outage on its stale cache.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.chaos import ChaosSource, reset_reads_on
from repro.logs.columnar import ColumnarArchive
from repro.query import ArchiveSource
from repro.query.cache import QueryCache
from repro.server import TelemetryServer, run_in_thread, run_load

GOLDEN_LOGS = Path(__file__).parents[1] / "tests" / "data" / "golden_logs"

#: Admitted-request p99 ceiling (ms) — lenient for shared CI runners.
SLO_P99_MS = 2000.0

PLANS = [
    {
        "filters": [{"column": "kind", "op": "eq", "value": 1}],
        "group_by": ["node"],
        "aggregates": [{"fn": "count"}],
    },
    {
        "group_by": ["node"],
        "aggregates": [{"fn": "count"}, {"fn": "mean", "column": "t"}],
    },
    {"project": ["node", "t"], "order_by": ["-t"], "limit": 5},
]


@pytest.fixture(scope="module")
def archive_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("server-bench")
    ColumnarArchive.read_text_directory(GOLDEN_LOGS).save(path)
    return path


def _record(benchmark, report) -> None:
    benchmark.extra_info.update(report.to_dict())
    benchmark.extra_info["slo_p99_ms"] = SLO_P99_MS
    assert report.transport_errors == 0
    assert report.unflagged_degraded == 0
    assert report.percentile_ms(99) <= SLO_P99_MS


def _serve_and_load(target, benchmark, *, clients=4, requests=25, **server_kw):
    handle = run_in_thread(TelemetryServer(target, **server_kw))
    try:
        report = benchmark.pedantic(
            run_load,
            args=(handle.server.host, handle.server.port, PLANS),
            kwargs={"clients": clients, "requests_per_client": requests},
            rounds=1,
            iterations=1,
        )
    finally:
        handle.stop()
    _record(benchmark, report)
    return report


def test_perf_server_healthy(benchmark, archive_dir):
    report = _serve_and_load(archive_dir, benchmark)
    assert report.count(200) == report.requests
    assert report.degraded == 0


def test_perf_server_storage_outage(benchmark, archive_dir):
    # Each warm plan costs one read per node; reads beyond the warm
    # sweeps fail forever.  The tier must keep answering — flagged.
    source = ChaosSource(
        ArchiveSource(archive_dir),
        reset_reads_on(None, attempts=tuple(range(len(PLANS) + 1, 1000))),
    )
    handle = run_in_thread(
        TelemetryServer(
            source,
            cache=QueryCache(max_entries=0),
            read_retries=0,
            breaker_failure_threshold=3,
            breaker_reset_timeout_s=60.0,
            max_stale_s=600.0,
        )
    )
    try:
        warm = run_load(
            handle.server.host, handle.server.port, PLANS,
            clients=1, requests_per_client=len(PLANS),
        )
        assert warm.count(200) == warm.requests
        report = benchmark.pedantic(
            run_load,
            args=(handle.server.host, handle.server.port, PLANS),
            kwargs={"clients": 4, "requests_per_client": 10},
            rounds=1,
            iterations=1,
        )
    finally:
        handle.stop()
    _record(benchmark, report)
    assert report.count(200) == report.requests
    assert report.degraded == report.requests  # every answer truthful
