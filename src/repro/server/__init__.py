"""Asyncio fleet telemetry server over the query engine.

Stdlib-only HTTP/1.1 + JSON: :class:`TelemetryServer` binds a query
engine to a socket and answers ``/query`` (POST a plan),
``/nodes/<id>/errors``, ``/health`` and ``/metrics``.  The serving tier
is resilience-first: keep-alive with idle/request caps, per-client rate
limiting and queue-depth load shedding (:mod:`repro.server.admission`),
and breaker-gated reads with stale-while-revalidate degradation
(:mod:`repro.query.resilient`) under one query engine.  See
``docs/QUERY.md`` for the wire API and ``docs/ROBUSTNESS.md``
("Serving under failure") for the failure model.
"""

from .admission import ClientRateLimiter, TokenBucket, retry_after_header
from .app import EndpointMetrics, ServerHandle, TelemetryServer, run_in_thread
from .loadgen import LoadReport, run_load

__all__ = [
    "ClientRateLimiter",
    "EndpointMetrics",
    "LoadReport",
    "ServerHandle",
    "TelemetryServer",
    "TokenBucket",
    "retry_after_header",
    "run_in_thread",
    "run_load",
]
