"""The telemetry server: stdlib asyncio HTTP/1.1 in front of the engine.

Design constraints, in order:

* **No new dependencies.**  The HTTP layer stays a few hundred lines
  over ``asyncio.start_server``: request line, headers, Content-Length
  body, JSON out.  Connections are keep-alive by default (bounded by a
  per-connection request cap and an idle timeout); no chunked encoding
  — fleet dashboards poll, they do not stream.
* **Admission before work.**  A shed request never touches the thread
  pool.  Per-client token buckets (off by default) answer 429, a full
  semaphore queue answers 503, both with ``Retry-After``; ``/health``
  and ``/metrics`` bypass admission entirely so operators can always
  see in.
* **Bounded concurrency.**  A semaphore admits at most
  ``max_concurrency`` requests into the dispatch stage and at most
  ``max_queue_depth`` may wait for it; ``/metrics`` reports in-flight
  and queued gauges so tests can prove the bounds hold.
* **Degrade honestly.**  Query execution runs behind
  :class:`~repro.query.resilient.ResilientExecutor`: storage faults are
  retried, breaker-gated, and — within a bounded staleness window —
  answered from the last-good result with ``"degraded": true`` on the
  wire, never silently passed off as fresh.
* **Timeouts everywhere.**  Header/body reads and query execution are
  wrapped in ``asyncio.wait_for``; a wedged client or a pathological
  plan gets 408/504, not a leaked task.  ``stop()`` cancels whatever
  connections remain.
* **The event loop never touches NumPy.**  Query execution (and its
  shard I/O) runs in the default thread-pool executor; the loop only
  parses bytes and serializes JSON.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass, field

from ..core.errors import QueryPlanError, ReproError, SourceUnavailableError
from ..query.cache import QueryCache
from ..query.engine import QueryEngine
from ..query.plan import Predicate, Query
from ..query.resilient import (
    TRANSIENT_READ_ERRORS,
    CircuitBreaker,
    ReadRetryPolicy,
    ResilientExecutor,
    ResilientSource,
    StaleResultCache,
)
from ..query.source import as_source
from .admission import ClientRateLimiter, retry_after_header

#: Hard cap on request body size (a plan is small; 1 MiB is generous).
MAX_BODY_BYTES = 1 << 20
#: Default timeout for reading a request head and body from a client.
CLIENT_READ_TIMEOUT_S = 10.0
#: Default idle timeout between keep-alive requests (silent close).
KEEPALIVE_IDLE_TIMEOUT_S = 5.0
#: Default cap on requests served per connection before forcing close.
KEEPALIVE_MAX_REQUESTS = 100
#: Default cap on requests waiting for the concurrency semaphore.
MAX_QUEUE_DEPTH = 32
#: Cap on header lines per request (plans travel in the body).
MAX_HEADER_LINES = 100


@dataclass
class EndpointMetrics:
    """Latency/outcome counters for one endpoint."""

    requests: int = 0
    errors: int = 0
    total_latency_s: float = 0.0
    max_latency_s: float = 0.0

    def observe(self, latency_s: float, ok: bool) -> None:
        self.requests += 1
        if not ok:
            self.errors += 1
        self.total_latency_s += latency_s
        self.max_latency_s = max(self.max_latency_s, latency_s)

    def to_dict(self) -> dict:
        mean = self.total_latency_s / self.requests if self.requests else 0.0
        return {
            "requests": self.requests,
            "errors": self.errors,
            "mean_latency_s": mean,
            "max_latency_s": self.max_latency_s,
        }


class _HttpError(Exception):
    def __init__(self, status: int, message: str, headers: dict | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


class _ConnectionClosed(Exception):
    """The client closed (or broke) the connection between requests."""


_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    408: "Request Timeout", 413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


class TelemetryServer:
    """Serve query results for one archive over HTTP/JSON.

    ``target`` is an archive path or a source object.  One
    :class:`~repro.query.engine.QueryEngine` reads it through one
    :class:`~repro.query.resilient.ResilientSource`.  ``shard_workers``
    accepts only 0, its default; the keyword stays so that callers
    which pass it keep working.
    """

    def __init__(
        self,
        target,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_concurrency: int = 8,
        request_timeout_s: float = 30.0,
        cache: QueryCache | None = None,
        # -- admission control ------------------------------------------
        client_read_timeout_s: float = CLIENT_READ_TIMEOUT_S,
        keepalive_idle_timeout_s: float = KEEPALIVE_IDLE_TIMEOUT_S,
        keepalive_max_requests: int = KEEPALIVE_MAX_REQUESTS,
        max_queue_depth: int = MAX_QUEUE_DEPTH,
        rate_limit_qps: float | None = None,
        rate_limit_burst: float | None = None,
        # -- graceful degradation ---------------------------------------
        breaker_failure_threshold: int = 5,
        breaker_reset_timeout_s: float = 1.0,
        read_retries: int = 2,
        read_timeout_s: float | None = None,
        max_stale_s: float = 300.0,
        stale_cache_entries: int = 32,
        # -- accepted for existing callers; 0 only ----------------------
        shard_workers: int = 0,
        # -- online prediction -------------------------------------------
        predictor=None,
    ):
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be > 0")
        if client_read_timeout_s <= 0:
            raise ValueError("client_read_timeout_s must be > 0")
        if keepalive_idle_timeout_s <= 0:
            raise ValueError("keepalive_idle_timeout_s must be > 0")
        if keepalive_max_requests < 1:
            raise ValueError("keepalive_max_requests must be >= 1")
        if max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        if rate_limit_qps is not None and rate_limit_qps <= 0:
            raise ValueError("rate_limit_qps must be > 0")
        if shard_workers != 0:
            raise ValueError("shard_workers must be 0")

        self.breaker = CircuitBreaker(
            failure_threshold=breaker_failure_threshold,
            reset_timeout_s=breaker_reset_timeout_s,
        )
        self.resilient_source = ResilientSource(
            as_source(target),
            breaker=self.breaker,
            retry=ReadRetryPolicy(retries=read_retries),
            read_timeout_s=read_timeout_s,
        )
        self.engine = QueryEngine(self.resilient_source, cache=cache)
        self.executor = ResilientExecutor(
            self.engine,
            stale=StaleResultCache(stale_cache_entries),
            max_stale_s=max_stale_s,
        )

        self.host = host
        self.port = port  # 0 = ephemeral; replaced with the bound port
        self.max_concurrency = max_concurrency
        self.request_timeout_s = request_timeout_s
        self.client_read_timeout_s = client_read_timeout_s
        self.keepalive_idle_timeout_s = keepalive_idle_timeout_s
        self.keepalive_max_requests = keepalive_max_requests
        self.max_queue_depth = max_queue_depth
        self.limiter: ClientRateLimiter | None = None
        if rate_limit_qps is not None:
            burst = rate_limit_burst if rate_limit_burst is not None else max(
                1.0, rate_limit_qps
            )
            self.limiter = ClientRateLimiter(rate_limit_qps, burst)

        # Optional repro.ml OnlinePredictor (duck-typed: refresh/board/
        # status).  Refreshes run in the executor behind a lock; the
        # event loop only reads the stashed status dict.
        self.predictor = predictor
        self._predictor_lock = threading.Lock()
        self._predictor_status: dict | None = (
            {"model_id": getattr(predictor, "model_id", None), "refreshes": 0}
            if predictor is not None
            else None
        )

        self.metrics: dict[str, EndpointMetrics] = {}
        self.started_at: float | None = None
        self._server: asyncio.base_events.Server | None = None
        self._semaphore: asyncio.Semaphore | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._in_flight = 0
        self._peak_in_flight = 0
        self._queued = 0
        self._peak_queued = 0
        # Cumulative counters (event-loop-thread only; no lock needed).
        self._shed_rate_limited = 0
        self._shed_overload = 0
        self._unavailable_responses = 0
        self._degraded_responses = 0
        self._connections_total = 0
        self._open_connections = 0
        self._keepalive_reuse = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._semaphore = asyncio.Semaphore(self.max_concurrency)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.monotonic()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Cancel surviving connection handlers — including ones wedged
        # on a stuck executor read (the await is cancelled; the worker
        # thread finishes on its own).
        tasks = [t for t in self._conn_tasks if not t.done()]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._conn_tasks.clear()
        # Release what the server holds: a stopped server can stay
        # reachable (asyncio transport cycles) until a full collection,
        # and its cached results and decoded segments with it.
        self.resilient_source.close()
        self.engine.cache.clear()
        self.executor.stale.clear()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._connections_total += 1
        self._open_connections += 1
        try:
            await self._serve_requests(reader, writer)
        finally:
            self._open_connections -= 1
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_requests(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        served = 0
        while True:
            first = served == 0
            timeout = (
                self.client_read_timeout_s
                if first
                else self.keepalive_idle_timeout_s
            )
            try:
                method, path, headers, body = await asyncio.wait_for(
                    self._read_request(reader), timeout=timeout
                )
            except asyncio.TimeoutError:
                if first:
                    await self._respond(
                        writer, 408, {"error": "request read timed out"}
                    )
                return  # idle keep-alive connection: close silently
            except _ConnectionClosed:
                return
            except _HttpError as exc:
                # A framing error poisons the stream: answer and close.
                await self._respond(
                    writer, exc.status, {"error": exc.message},
                    extra_headers=exc.headers,
                )
                return
            except (asyncio.IncompleteReadError, ConnectionError, ValueError):
                return  # client went away / sent garbage mid-line

            served += 1
            if served > 1:
                self._keepalive_reuse += 1
            close = (
                headers.get("connection", "").lower() == "close"
                or served >= self.keepalive_max_requests
            )
            client_key = headers.get("x-client-id") or self._peer_name(writer)
            status, payload, extra = await self._process(
                method, path, headers, body, client_key
            )
            await self._respond(
                writer, status, payload, close=close, extra_headers=extra
            )
            if close:
                return

    @staticmethod
    def _peer_name(writer: asyncio.StreamWriter) -> str:
        peer = writer.get_extra_info("peername")
        return str(peer[0]) if isinstance(peer, (tuple, list)) and peer else "?"

    async def _process(
        self, method: str, path: str, headers: dict, body: bytes, client_key: str
    ) -> tuple[int, dict, dict]:
        """Admission, dispatch, and error mapping for one request."""
        endpoint = self._endpoint_name(method, path)
        metrics = self.metrics.setdefault(endpoint, EndpointMetrics())
        start = time.perf_counter()
        extra: dict = {}
        plain = path.split("?", 1)[0]
        if plain in ("/health", "/metrics"):
            # Operator endpoints bypass admission and the semaphore:
            # they must answer even when the serving path is saturated.
            status, payload, extra = await self._dispatch_safely(method, path, body)
        else:
            status, payload, extra = await self._admit_and_dispatch(
                method, path, body, client_key
            )
        metrics.observe(time.perf_counter() - start, ok=status < 400)
        return status, payload, extra

    async def _admit_and_dispatch(
        self, method: str, path: str, body: bytes, client_key: str
    ) -> tuple[int, dict, dict]:
        if self.limiter is not None:
            ok, retry_after_s = self.limiter.admit(client_key)
            if not ok:
                self._shed_rate_limited += 1
                return (
                    429,
                    {"error": f"client {client_key!r} over rate limit"},
                    {"Retry-After": retry_after_header(retry_after_s)},
                )
        assert self._semaphore is not None
        # Shed only when no slot is immediately free AND the wait queue
        # is at capacity — a free slot always admits.
        if self._semaphore.locked() and self._queued >= self.max_queue_depth:
            self._shed_overload += 1
            return (
                503,
                {"error": "server overloaded: request queue is full"},
                {"Retry-After": "1"},
            )
        self._queued += 1
        self._peak_queued = max(self._peak_queued, self._queued)
        try:
            await self._semaphore.acquire()
        finally:
            self._queued -= 1
        self._in_flight += 1
        self._peak_in_flight = max(self._peak_in_flight, self._in_flight)
        try:
            return await self._dispatch_safely(method, path, body)
        finally:
            self._in_flight -= 1
            self._semaphore.release()

    async def _dispatch_safely(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict, dict]:
        try:
            status, payload = await asyncio.wait_for(
                self._dispatch(method, path, body),
                timeout=self.request_timeout_s,
            )
            return status, payload, {}
        except asyncio.TimeoutError:
            return 504, {"error": f"request exceeded {self.request_timeout_s}s"}, {}
        except _HttpError as exc:
            return exc.status, {"error": exc.message}, dict(exc.headers)
        except QueryPlanError as exc:
            return 400, {"error": str(exc)}, {}
        except SourceUnavailableError as exc:
            self._unavailable_responses += 1
            return (
                503,
                {"error": str(exc)},
                {"Retry-After": retry_after_header(exc.retry_after_s or 1.0)},
            )
        except TRANSIENT_READ_ERRORS as exc:
            # A storage fault that exhausted retries with no stale
            # fallback: unavailable, not an internal error.
            self._unavailable_responses += 1
            return (
                503,
                {"error": f"archive read failed: {type(exc).__name__}: {exc}"},
                {"Retry-After": "1"},
            )
        except ReproError as exc:
            return 500, {"error": str(exc)}, {}
        except Exception as exc:  # noqa: BLE001 — last-resort 500
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, {}

    async def _read_request(self, reader) -> tuple[str, str, dict, bytes]:
        raw_line = await reader.readline()
        if not raw_line:
            raise _ConnectionClosed
        request_line = raw_line.decode("latin-1").rstrip("\r\n")
        if not request_line:
            raise _HttpError(400, "empty request line")
        parts = request_line.split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
            raise _HttpError(400, f"malformed request line: {request_line!r}")
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for _ in range(MAX_HEADER_LINES):
            line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
            if not line:
                break
            name, sep, value = line.partition(":")
            if not sep:
                raise _HttpError(400, f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _HttpError(400, "too many header lines")
        content_length = 0
        if "content-length" in headers:
            try:
                content_length = int(headers["content-length"])
            except ValueError as exc:
                raise _HttpError(400, "bad Content-Length") from exc
            if content_length < 0:
                raise _HttpError(400, "bad Content-Length")
        if content_length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(content_length) if content_length else b""
        return method, path, headers, body

    async def _respond(
        self,
        writer,
        status: int,
        payload: dict,
        *,
        close: bool = True,
        extra_headers: dict | None = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # client disconnected before the response landed

    # -- routing -----------------------------------------------------------

    @staticmethod
    def _endpoint_name(method: str, path: str) -> str:
        path = path.split("?", 1)[0]
        if path.startswith("/nodes/"):
            path = "/nodes/<id>/errors"
        return f"{method} {path}"

    async def _dispatch(self, method: str, path: str, body: bytes):
        path, _, query_string = path.partition("?")
        if path == "/health":
            self._require(method, "GET")
            return 200, self._health()
        if path == "/metrics":
            self._require(method, "GET")
            return 200, self._metrics()
        if path == "/query":
            self._require(method, "POST")
            return 200, await self._run_query(self._parse_plan(body))
        if path == "/predict":
            self._require(method, "GET")
            return 200, await self._predict(query_string)
        if path.startswith("/nodes/") and path.endswith("/errors"):
            self._require(method, "GET")
            node = path[len("/nodes/"):-len("/errors")]
            if not node or "/" in node:
                raise _HttpError(404, f"no such path: {path}")
            return 200, await self._node_errors(node, query_string)
        raise _HttpError(404, f"no such path: {path}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"use {expected}")

    @staticmethod
    def _parse_plan(body: bytes) -> Query:
        try:
            spec = json.loads(body.decode("utf-8") or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _HttpError(400, f"body is not valid JSON: {exc}") from exc
        return Query.from_dict(spec)

    # -- endpoints ---------------------------------------------------------

    def _health(self) -> dict:
        # fingerprint() first: on a live (watched) archive it refreshes
        # the manifest snapshot, so the shard counts match the state the
        # fingerprint names.
        try:
            fingerprint = self.engine.source.fingerprint()
            shards = self.engine.source.shards()
        except SourceUnavailableError as exc:
            # The operator endpoint must answer even when the archive
            # does not: report the breaker, not a 503.
            return {
                "status": "degraded",
                "error": str(exc),
                "breaker": self.breaker.state,
                "retry_after_s": self.breaker.retry_after_s(),
            }
        out = {
            "status": "ok",
            "nodes": len(shards),
            "records": int(shards.n_records.sum()),
            "zone_maps": int(shards.known.sum()),
            "fingerprint": fingerprint,
        }
        if self.breaker.state != "closed":
            out["status"] = "degraded"
            out["breaker"] = self.breaker.state
        manifest = getattr(self.engine.source, "manifest", None)
        if isinstance(manifest, dict) and "generation" in manifest:
            out["generation"] = int(manifest["generation"])
        return out

    def _metrics(self) -> dict:
        uptime = (
            time.monotonic() - self.started_at if self.started_at is not None else 0.0
        )
        out = {
            "uptime_s": uptime,
            "queries_run": self.engine.queries_run,
            "max_concurrency": self.max_concurrency,
            "in_flight": self._in_flight,
            "peak_in_flight": self._peak_in_flight,
            "queued": self._queued,
            "peak_queued": self._peak_queued,
            "cache": self.engine.cache.stats.to_dict(),
            "endpoints": {
                name: m.to_dict() for name, m in sorted(self.metrics.items())
            },
            "admission": {
                "max_queue_depth": self.max_queue_depth,
                "shed_rate_limited": self._shed_rate_limited,
                "shed_overload": self._shed_overload,
                "rate_limiter": (
                    self.limiter.to_dict() if self.limiter is not None else None
                ),
            },
            "connections": {
                "total": self._connections_total,
                "open": self._open_connections,
                "keepalive_reuse": self._keepalive_reuse,
            },
        }
        out["resilience"] = {
            "degraded_responses": self._degraded_responses,
            "unavailable_responses": self._unavailable_responses,
            "degrade": self.executor.stats.to_dict(),
            "breaker": self.breaker.to_dict(),
            "reads": self.resilient_source.stats.to_dict(),
        }
        if self._predictor_status is not None:
            out["predictor"] = self._predictor_status
        io = getattr(self.engine.source, "io", None)
        if io is not None:
            out["io"] = io.to_dict()
        return out

    async def _run_query(self, plan: Query) -> dict:
        loop = asyncio.get_running_loop()
        outcome = await loop.run_in_executor(None, self.executor.execute, plan)
        payload = outcome.result.to_dict()
        payload["degraded"] = outcome.degraded
        if outcome.degraded:
            self._degraded_responses += 1
            payload["degraded_reason"] = outcome.reason
            payload["stale_age_s"] = outcome.stale_age_s
        return payload

    async def _predict(self, query_string: str) -> dict:
        """Per-node degradation scores from the online predictor.

        Query params: ``limit`` (top-N), ``threshold`` (minimum score),
        ``node`` (single-node lookup), ``t0`` (pin the replay clock in
        hours), ``refresh=0`` (serve the cached board without
        re-scoring).  404 when the server runs without a predictor.
        """
        if self.predictor is None:
            raise _HttpError(
                404, "no predictor configured (start with a model registry)"
            )
        limit = _query_param_int(query_string, "limit")
        threshold = _query_param_float(query_string, "threshold")
        node = _query_param_str(query_string, "node")
        t0 = _query_param_float(query_string, "t0")
        refresh = _query_param_int(query_string, "refresh")
        do_refresh = refresh != 0

        def work():
            with self._predictor_lock:
                if do_refresh or self.predictor.board is None:
                    self.predictor.refresh(t0)
                board = self.predictor.board
                status = self.predictor.status()
                self._predictor_status = status
                return board, status

        loop = asyncio.get_running_loop()
        try:
            board, status = await loop.run_in_executor(None, work)
        except RuntimeError as exc:
            raise _HttpError(503, str(exc)) from exc
        payload = {
            "model_id": board.model_id,
            "t0_hours": board.t0,
            "n_nodes": len(board.nodes),
            "scores": board.top(limit=limit, threshold=threshold),
            "status": status,
        }
        if node is not None:
            score = board.score_of(node)
            if score is None:
                raise _HttpError(404, f"unknown node {node!r}")
            payload["node"] = {"node": node, "score": score}
        return payload

    async def _node_errors(self, node: str, query_string: str) -> dict:
        if node not in self.engine.source.shards().nodes:
            raise _HttpError(404, f"unknown node {node!r}")
        limit = _query_param_int(query_string, "limit")
        from ..logs.columnar import KIND_ERROR
        from ..query.plan import Derive

        plan = Query(
            filters=(
                Predicate("kind", "eq", int(KIND_ERROR)),
                Predicate("node", "eq", node),
            ),
            derive=(Derive("n_bits", "n_bits"),),
            project=("t", "expected", "actual", "va", "pp", "temp", "rep", "n_bits"),
            order_by=("t",),
            limit=limit,
            nodes=(node,),
        )
        payload = await self._run_query(plan)
        payload["node"] = node
        return payload


def _query_param_int(query_string: str, name: str) -> int | None:
    for pair in query_string.split("&"):
        key, _, value = pair.partition("=")
        if key == name and value:
            try:
                parsed = int(value)
            except ValueError as exc:
                raise _HttpError(400, f"{name} must be an integer") from exc
            if parsed < 0:
                raise _HttpError(400, f"{name} must be >= 0")
            return parsed
    return None


def _query_param_float(query_string: str, name: str) -> float | None:
    for pair in query_string.split("&"):
        key, _, value = pair.partition("=")
        if key == name and value:
            try:
                return float(value)
            except ValueError as exc:
                raise _HttpError(400, f"{name} must be a number") from exc
    return None


def _query_param_str(query_string: str, name: str) -> str | None:
    for pair in query_string.split("&"):
        key, _, value = pair.partition("=")
        if key == name and value:
            return value
    return None


# ---------------------------------------------------------------------------
# Threaded harness (tests, and anything embedding the server)
# ---------------------------------------------------------------------------


@dataclass
class ServerHandle:
    """A running server on a background thread; ``stop()`` to tear down."""

    server: TelemetryServer
    thread: threading.Thread
    loop: asyncio.AbstractEventLoop
    _stopped: threading.Event = field(default_factory=threading.Event)

    @property
    def address(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def stop(self, timeout: float = 5.0) -> None:
        if self._stopped.is_set():
            return
        self._stopped.set()
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=timeout)


def run_in_thread(server: TelemetryServer, *, timeout: float = 5.0) -> ServerHandle:
    """Start the server's event loop on a daemon thread and wait for bind."""
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    startup_error: list[BaseException] = []

    def runner() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # noqa: BLE001 — reported to the caller
            startup_error.append(exc)
            ready.set()
            return
        ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(server.stop())
            loop.close()

    thread = threading.Thread(target=runner, name="repro-telemetry", daemon=True)
    thread.start()
    if not ready.wait(timeout=timeout):
        raise RuntimeError("telemetry server did not start in time")
    if startup_error:
        thread.join(timeout=timeout)
        raise startup_error[0]
    return ServerHandle(server=server, thread=thread, loop=loop)
