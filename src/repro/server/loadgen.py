"""Load generator for the telemetry serving tier.

Drives a running :class:`~repro.server.app.TelemetryServer` with
concurrent keep-alive clients and reports the latency distribution and
outcome counts the SLO gates consume (``benchmarks/bench_perf_server.py``
and the server chaos battery).  Stdlib ``http.client`` only — the
generator must not share any code with the server under test.

Latency percentiles are computed over *admitted* (HTTP 200) requests:
a shed request answers in microseconds and would flatter p99 if pooled
with real work.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class LoadReport:
    """What one load run observed, as the SLO gates consume it."""

    requests: int = 0
    statuses: dict[int, int] = field(default_factory=dict)
    ok_latencies_ms: list[float] = field(default_factory=list)
    degraded: int = 0
    stale: int = 0
    unflagged_degraded: int = 0
    retry_after_present: int = 0
    retry_after_missing: int = 0
    transport_errors: int = 0
    elapsed_s: float = 0.0

    def count(self, status: int) -> int:
        return self.statuses.get(status, 0)

    @property
    def shed(self) -> int:
        return self.count(429) + self.count(503)

    def percentile_ms(self, q: float) -> float:
        if not self.ok_latencies_ms:
            return 0.0
        return float(np.percentile(np.asarray(self.ok_latencies_ms), q))

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
            "ok": self.count(200),
            "shed": self.shed,
            "degraded": self.degraded,
            "stale": self.stale,
            "unflagged_degraded": self.unflagged_degraded,
            "transport_errors": self.transport_errors,
            "p50_ms": self.percentile_ms(50),
            "p99_ms": self.percentile_ms(99),
            "elapsed_s": self.elapsed_s,
            "qps": self.requests / self.elapsed_s if self.elapsed_s else 0.0,
        }


def _merge(total: LoadReport, part: LoadReport) -> None:
    total.requests += part.requests
    for status, n in part.statuses.items():
        total.statuses[status] = total.statuses.get(status, 0) + n
    total.ok_latencies_ms.extend(part.ok_latencies_ms)
    total.degraded += part.degraded
    total.stale += part.stale
    total.unflagged_degraded += part.unflagged_degraded
    total.retry_after_present += part.retry_after_present
    total.retry_after_missing += part.retry_after_missing
    total.transport_errors += part.transport_errors


def run_load(
    host: str,
    port: int,
    plans: list[dict],
    *,
    clients: int = 4,
    requests_per_client: int = 25,
    timeout_s: float = 10.0,
    client_id_prefix: str = "loadgen",
) -> LoadReport:
    """Hammer ``POST /query`` from ``clients`` keep-alive connections.

    Each worker cycles through ``plans`` on one persistent connection,
    identifying itself via ``X-Client-Id`` so per-client rate limits
    bite deterministically.  A 200 whose body carries a staleness marker
    (``stale_age_s``) without ``"degraded": true`` counts as
    ``unflagged_degraded`` — the chaos battery gates on this staying
    zero.
    """
    reports = [LoadReport() for _ in range(clients)]
    start = time.perf_counter()

    def worker(index: int) -> None:
        report = reports[index]
        conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
        headers = {
            "Content-Type": "application/json",
            "X-Client-Id": f"{client_id_prefix}-{index}",
        }
        try:
            for i in range(requests_per_client):
                body = json.dumps(plans[i % len(plans)]).encode("utf-8")
                t0 = time.perf_counter()
                try:
                    conn.request("POST", "/query", body=body, headers=headers)
                    response = conn.getresponse()
                    raw = response.read()
                except (http.client.HTTPException, ConnectionError, OSError):
                    report.transport_errors += 1
                    conn.close()
                    conn = http.client.HTTPConnection(
                        host, port, timeout=timeout_s
                    )
                    continue
                latency_ms = (time.perf_counter() - t0) * 1e3
                status = response.status
                report.requests += 1
                report.statuses[status] = report.statuses.get(status, 0) + 1
                if status in (429, 503):
                    if response.getheader("Retry-After"):
                        report.retry_after_present += 1
                    else:
                        report.retry_after_missing += 1
                if status != 200:
                    if response.getheader("Connection", "").lower() == "close":
                        conn.close()
                        conn = http.client.HTTPConnection(
                            host, port, timeout=timeout_s
                        )
                    continue
                report.ok_latencies_ms.append(latency_ms)
                try:
                    payload = json.loads(raw)
                except json.JSONDecodeError:
                    report.transport_errors += 1
                    continue
                degraded = bool(payload.get("degraded"))
                stale = "stale_age_s" in payload
                if degraded:
                    report.degraded += 1
                if stale:
                    report.stale += 1
                if stale and not degraded:
                    report.unflagged_degraded += 1
        finally:
            conn.close()

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"loadgen-{i}")
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    total = LoadReport()
    for report in reports:
        _merge(total, report)
    total.elapsed_s = time.perf_counter() - start
    return total
