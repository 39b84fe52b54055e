"""Fixtures and HTTP helpers for the serving-tier resilience suite.

The suite drives a real server over real TCP sockets (keep-alive
matters here, so helpers use ``http.client``, not urllib) against the
golden corpus.
"""

from __future__ import annotations

import contextlib
import http.client
import json
from pathlib import Path

import pytest

from repro.logs.columnar import ColumnarArchive
from repro.server import TelemetryServer, run_in_thread

GOLDEN = Path(__file__).parents[1] / "data" / "golden_logs"

#: A cheap plan the admission/chaos tests hammer.
COUNT_PLAN = {
    "filters": [{"column": "kind", "op": "eq", "value": 1}],
    "group_by": ["node"],
    "aggregates": [{"fn": "count"}],
}


class FakeClock:
    """Deterministic stand-in for time.monotonic in unit tests."""

    def __init__(self, now: float = 0.0):
        self.now = float(now)

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += float(dt)


@pytest.fixture(scope="session")
def golden_dir(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("server-golden")
    ColumnarArchive.read_text_directory(GOLDEN).save(path)
    return path


@contextlib.contextmanager
def serving(target, **kwargs):
    """A TelemetryServer on a background thread, torn down on exit."""
    handle = run_in_thread(TelemetryServer(target, **kwargs))
    try:
        yield handle
    finally:
        handle.stop()


def request(
    host: str,
    port: int,
    method: str,
    path: str,
    *,
    body=None,
    headers: dict | None = None,
    timeout: float = 10.0,
) -> tuple[int, dict, dict]:
    """One request on a fresh connection: (status, payload, headers)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        conn.request(method, path, body=data, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        payload = json.loads(raw) if raw else {}
        return response.status, payload, dict(response.getheaders())
    finally:
        conn.close()


def get(handle, path: str, **kw) -> tuple[int, dict, dict]:
    return request(handle.server.host, handle.server.port, "GET", path, **kw)


def post(handle, path: str, body, **kw) -> tuple[int, dict, dict]:
    return request(handle.server.host, handle.server.port, "POST", path, body=body, **kw)
