"""live-serve: the live path, from raw scanner logs to ``/query`` answers.

Inputs (generated here from the seed, never by ``repro``'s writers): one
text chunk per commit window holding every node's START/ERROR/END lines in
the ``docs/LOG_FORMAT.md`` grammar.  Line volumes follow the paper-scale
campaign the repository simulates (see the constants below): 923 nodes
with about two scan sessions a day each, so most nodes write only
lifecycle lines; four hot nodes write >99.9% of the ERROR lines, every
day; ``na`` temperatures and ``rep>1`` lines at the campaign's rates.
Every line has its own timestamp, so ordering by ``t`` is total.

One repetition, on a fresh archive and a fresh in-process server:

1. ingest: per window, ``parse_chunk``, ``LiveArchive.append_batch``,
   then one probe ``/query`` limited to that window (read after commit);
2. compaction: ``compact_archive``;
3. queries: a closed loop from one client on one keep-alive connection
   through a seeded plan mix (hourly histograms and per-node counts over
   week-long windows, narrow windows that zone maps mostly prune, large
   row listings, and re-issues of recent plans that hit the result cache).

Every probe and query answer is compared with the same query computed
with NumPy over the generator's arrays.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import time
from pathlib import Path

import numpy as np

from common import MIB, RepOutcome, load_expected, median, tail
from spans import Stopwatch

# Fleet volumes, from the paper-scale campaign at the default seed
# (``python3 perfbench/record.py fleet`` prints them): 923 nodes,
# 768,562 scan sessions and 90,658 ERROR records (28.8M raw lines) in
# 425 days.  Rates are spread evenly over the days.
N_NODES = 923
SESSIONS_PER_NODE_DAY = 1.959
#: (ERROR records per day, mean ``rep``) of the four nodes that write
#: 99.96% of them: the degrading node, the stuck node, the two weak bits.
HOT_NODES = ((127.44, 1.0), (66.39, 1017.9), (11.42, 1.988), (7.97, 2.014))
#: ERROR records per day on the other 919 nodes together (36 in 425 days).
BACKGROUND_PER_DAY = 0.0847
P_NA_TEMP = 0.0496
P_MULTIBIT = 0.00094
P_ONE_TO_ZERO = 0.933

# The workload's own choices, not taken from the paper: two weeks of
# logs committed every two days, then a query mix with the same number
# of plans in every class.  Every probe re-reads the segments committed
# so far (about 20 ms each on a 2-vCPU host), so the probes' total time
# grows with the square of the commit count.
WINDOWS = 7
WINDOW_HOURS = 48.0
#: Plans of the query phase per kind; re-issues repeat a recent plan.
PLAN_COUNTS = {"agg_hourly": 40, "agg_node": 40, "window": 40, "rows": 40, "repeat": 40}
#: Classes the query latencies are reported by.
CLASSES = ("agg", "window", "rows", "repeat")
AGG_HOURS = 7 * 24.0
NARROW_HOURS = 3.0
ROWS_HOURS = 7 * 24.0
ROWS_LIMIT = 1000
#: How many recent plans a re-issue picks from.
REPEAT_DEPTH = 8

KIND_START, KIND_ERROR, KIND_END = 0, 1, 2
_MS_PER_HOUR = 3_600_000
_VIRTUAL_BASE = 0x3000_0000
_BUFFER_WORDS = (3 << 30) // 4
_PAGES = (3 << 30) // 4096
_ROW_COLUMNS = ["t", "node", "va", "expected", "actual", "temp", "rep"]


def fleet_names() -> list[str]:
    """Blade-SoC names as the study's logs spell them, in sorted order."""
    return [f"{blade:02d}-{soc:02d}" for blade in range(1, 63) for soc in range(1, 16)][:N_NODES]


# ---------------------------------------------------------------------------
# Input generation and the NumPy oracle (run by ``worker.py gen``)
# ---------------------------------------------------------------------------


def _window(rng, index: int, hot: np.ndarray) -> dict:
    """Arrays of one commit window, node by node, each node in time order."""
    n_errors = np.zeros(N_NODES, dtype=np.int64)
    mean_rep = np.ones(N_NODES)
    for node, (per_day, rep_mean) in zip(hot, HOT_NODES):
        n_errors[node] = rng.poisson(per_day * WINDOW_HOURS / 24.0)
        mean_rep[node] = rep_mean
    cold = np.setdiff1d(np.arange(N_NODES), hot)
    n_background = rng.poisson(BACKGROUND_PER_DAY * WINDOW_HOURS / 24.0)
    np.add.at(n_errors, rng.choice(cold, n_background), 1)
    # ERROR lines are written inside a scan session.
    n_sessions = rng.poisson(SESSIONS_PER_NODE_DAY * WINDOW_HOURS / 24.0, size=N_NODES)
    n_sessions = np.maximum(n_sessions, n_errors > 0)
    per_node = 2 * n_sessions + n_errors
    total = int(per_node.sum())
    span_ms = int(WINDOW_HOURS * _MS_PER_HOUR)
    stamps = index * span_ms + rng.choice(span_ms, size=total, replace=False)

    kind = np.empty(total, dtype=np.uint8)
    t_ms = np.empty(total, dtype=np.int64)
    offset = 0
    for node in range(N_NODES):
        sessions = int(n_sessions[node])
        if not sessions:
            continue
        split = rng.multinomial(int(n_errors[node]), [1.0 / sessions] * sessions)
        seq = []
        for errors in split:
            seq.append(KIND_START)
            seq.extend([KIND_ERROR] * int(errors))
            seq.append(KIND_END)
        stop = offset + len(seq)
        kind[offset:stop] = seq
        t_ms[offset:stop] = np.sort(stamps[offset:stop])
        offset = stop

    node_of = np.repeat(np.arange(N_NODES), per_node)
    is_error = kind == KIND_ERROR
    expected = np.where(rng.random(total) < P_ONE_TO_ZERO, 0xFFFFFFFF, 0).astype(np.uint32)
    bit = rng.integers(0, 32, size=total)
    mask = np.left_shift(1, bit).astype(np.uint32)
    double = rng.random(total) < P_MULTIBIT
    mask[double] |= np.left_shift(1, (bit[double] + 1) % 32).astype(np.uint32)
    # Geometric repeat counts: at least 1, with each node's mean.
    rep = rng.geometric(1.0 / mean_rep[node_of])
    temp_c = rng.integers(2500, 8500, size=total)
    temp_na = rng.random(total) < P_NA_TEMP
    return {
        "kind": kind,
        "t_ms": t_ms,
        "node": node_of,
        "temp_centi": np.where(temp_na, -1, temp_c),
        "mb": np.where(kind == KIND_START, rng.choice([3072, 2048, 1024], size=total), 0),
        "va": np.where(is_error, _VIRTUAL_BASE + 4 * rng.integers(0, _BUFFER_WORDS, size=total), 0),
        "pp": np.where(is_error, 0x8_0000 + rng.integers(0, _PAGES, size=total), 0),
        "expected": np.where(is_error, expected, 0).astype(np.uint32),
        "actual": np.where(is_error, expected ^ mask, 0).astype(np.uint32),
        "rep": np.where(is_error, rep, 0),
    }


def _text(arrays: dict, names: list[str]) -> bytes:
    lines = []
    for kind, t_ms, node, temp, mb, va, pp, exp, act, rep in zip(
        *(arrays[k].tolist() for k in ("kind", "t_ms", "node", "temp_centi", "mb", "va", "pp", "expected", "actual", "rep"))
    ):
        stamp = repr(t_ms / _MS_PER_HOUR)
        temp_text = "na" if temp < 0 else f"{temp // 100}.{temp % 100:02d}"
        if kind == KIND_ERROR:
            lines.append(
                f"ERROR|t={stamp}|node={names[node]}|va=0x{va:x}|pp=0x{pp:x}"
                f"|exp=0x{exp:08x}|act=0x{act:08x}|temp={temp_text}|rep={rep}"
            )
        elif kind == KIND_START:
            lines.append(f"START|t={stamp}|node={names[node]}|mb={mb}|temp={temp_text}")
        else:
            lines.append(f"END|t={stamp}|node={names[node]}|temp={temp_text}")
    return ("\n".join(lines) + "\n").encode("ascii")


def _in_window(lo: float, hi: float) -> list[dict]:
    return [
        {"column": "kind", "op": "eq", "value": KIND_ERROR},
        {"column": "t", "op": "ge", "value": lo},
        {"column": "t", "op": "lt", "value": hi},
    ]


def probe_plan(window: int) -> dict:
    lo = window * WINDOW_HOURS
    return {
        "filters": _in_window(lo, lo + WINDOW_HOURS),
        "group_by": ["node"],
        "aggregates": [{"fn": "count", "alias": "n"}, {"fn": "sum", "column": "rep", "alias": "lines"}],
    }


def _plans(rng) -> list[dict]:
    """The query phase: (class, plan) pairs in a seeded order.

    The seed moves windows and the order of the classes; the number of
    plans per class and each plan's size stay fixed, so every seed asks
    for the same amount of work.
    """
    end = WINDOWS * WINDOW_HOURS

    def window(length: float) -> list[dict]:
        lo = round(float(rng.uniform(0.0, end - length)), 3)
        return _in_window(lo, round(lo + length, 3))

    def agg_hourly() -> dict:
        return {
            "filters": window(AGG_HOURS),
            "derive": [{"name": "hour", "fn": "hour"}],
            "group_by": ["hour"],
            "aggregates": [{"fn": "count", "alias": "n"}, {"fn": "sum", "column": "rep", "alias": "lines"}],
        }

    def agg_node() -> dict:
        return {
            "filters": window(AGG_HOURS),
            "group_by": ["node"],
            "aggregates": [
                {"fn": "count", "alias": "n"},
                {"fn": "sum", "column": "rep", "alias": "lines"},
                {"fn": "max", "column": "t", "alias": "last_t"},
            ],
        }

    def narrow() -> dict:
        return {
            "filters": window(NARROW_HOURS),
            "group_by": ["node"],
            "aggregates": [{"fn": "count", "alias": "n"}, {"fn": "sum", "column": "rep", "alias": "lines"}],
        }

    def rows() -> dict:
        return {
            "filters": window(ROWS_HOURS),
            "project": list(_ROW_COLUMNS),
            "order_by": ["-t"],
            "limit": ROWS_LIMIT,
        }

    makers = {"agg_hourly": ("agg", agg_hourly), "agg_node": ("agg", agg_node),
              "window": ("window", narrow), "rows": ("rows", rows)}
    fresh = [name for name, count in PLAN_COUNTS.items() if name != "repeat" for _ in range(count)]
    fresh = [fresh[i] for i in rng.permutation(len(fresh))]
    n_total = len(fresh) + PLAN_COUNTS["repeat"]
    repeats = set(rng.choice(np.arange(1, n_total), size=PLAN_COUNTS["repeat"], replace=False).tolist())
    out: list[dict] = []
    recent: list[dict] = []
    for position in range(n_total):
        if position in repeats:
            out.append({"class": "repeat", "plan": recent[int(rng.integers(len(recent)))]})
            continue
        cls, make = makers[fresh.pop()]
        plan = make()
        out.append({"class": cls, "plan": plan})
        recent = (recent + [plan])[-REPEAT_DEPTH:]
    return out


def canonical(columns: list) -> bytes:
    """Byte form of ``[[name, values], ...]`` that answers are compared in."""
    return json.dumps(columns, separators=(",", ":"), allow_nan=False).encode("ascii")


def oracle(plan: dict, data: dict, names: list[str]) -> list:
    """The plan's answer computed with NumPy over the generator's arrays.

    Covers exactly the plan shapes this module generates.
    """
    t = data["t"]
    keep = np.ones(t.shape[0], dtype=bool)
    for pred in plan["filters"]:
        column = t if pred["column"] == "t" else data[pred["column"]]
        op = {"eq": np.equal, "ge": np.greater_equal, "lt": np.less}[pred["op"]]
        keep &= op(column, pred["value"])
    rows = np.flatnonzero(keep)
    if "project" in plan:
        rows = rows[np.argsort(-t[rows], kind="stable")][: plan["limit"]]
        out = []
        for name in plan["project"]:
            if name == "node":
                values = [names[i] for i in data["node"][rows].tolist()]
            elif name == "temp":
                values = [None if v != v else v for v in data["temp"][rows].tolist()]
            else:
                values = data[name][rows].tolist()
            out.append([name, values])
        return out
    (key,) = plan["group_by"]
    if key == "hour":
        keys = (t[rows] % 24.0).astype(np.int64) % 24
        labels = sorted(set(keys.tolist()))
    else:
        keys = data["node"][rows]
        labels = sorted(set(keys.tolist()), key=lambda i: names[i])
    groups = [rows[keys == label] for label in labels]
    out = [[key, labels if key == "hour" else [names[i] for i in labels]]]
    for agg in plan["aggregates"]:
        if agg["fn"] == "count":
            values = [int(g.shape[0]) for g in groups]
        elif agg["fn"] == "sum":
            values = [int(data[agg["column"]][g].sum()) for g in groups]
        else:
            values = [float(t[g].max()) for g in groups]
        out.append([agg["alias"], values])
    return out


def generate(seed: int, inputs: Path) -> dict:
    rng = np.random.default_rng([seed % (1 << 63), 0x11E5])
    names = fleet_names()
    hot = rng.choice(N_NODES, size=len(HOT_NODES), replace=False)
    inputs_hash = hashlib.sha256()
    windows = []
    for index in range(WINDOWS):
        arrays = _window(rng, index, hot)
        text = _text(arrays, names)
        (inputs / f"window-{index:03d}.log").write_bytes(text)
        inputs_hash.update(text)
        windows.append(arrays)
    data = {key: np.concatenate([w[key] for w in windows]) for key in windows[0]}
    data["t"] = data.pop("t_ms") / _MS_PER_HOUR
    centi = data.pop("temp_centi")
    data["temp"] = np.where(centi < 0, np.nan, centi / 100.0)

    probes = [probe_plan(index) for index in range(WINDOWS)]
    queries = _plans(rng)
    answers_hash = hashlib.sha256()
    expected_probes = []
    for plan in probes:
        digest = hashlib.sha256(canonical(oracle(plan, data, names))).hexdigest()
        expected_probes.append(digest)
        answers_hash.update(digest.encode())
    for query in queries:
        digest = hashlib.sha256(canonical(oracle(query["plan"], data, names))).hexdigest()
        query["answer"] = digest
        answers_hash.update(digest.encode())
    inputs_hash.update(json.dumps(queries, sort_keys=True).encode())
    digests = {"inputs": inputs_hash.hexdigest(), "answers": answers_hash.hexdigest()}
    spec = {
        "window_lines": [int(w["kind"].shape[0]) for w in windows],
        "probes": probes,
        "probe_answers": expected_probes,
        "queries": queries,
        "digests": digests,
    }
    (inputs / "plans.json").write_text(json.dumps(spec), encoding="utf-8")
    return digests


# ---------------------------------------------------------------------------
# The client
# ---------------------------------------------------------------------------


class _Connection(http.client.HTTPConnection):
    """An HTTP connection that counts how often it (re)connects."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.connects = 0

    def connect(self) -> None:
        self.connects += 1
        super().connect()


class Client:
    """One closed-loop client on one keep-alive connection.

    The server closes the connection after a request cap or an idle
    timeout; the client then reconnects and, when a request found the
    connection already closed, sends it once more.  Reconnects are
    counted, not failed.
    """

    def __init__(self, host: str, port: int) -> None:
        self.conn = _Connection(host, port, timeout=60)

    @property
    def reconnects(self) -> int:
        return max(0, self.conn.connects - 1)

    def post(self, body: bytes, tracer) -> tuple[int, bytes, float]:
        start = time.perf_counter()
        with tracer.span("server.request"):
            for attempt in range(2):
                try:
                    self.conn.request(
                        "POST", "/query", body=body, headers={"Content-Type": "application/json"}
                    )
                    response = self.conn.getresponse()
                    payload = response.read()
                    break
                except (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError):
                    self.conn.close()
                    if attempt:
                        raise
        return response.status, payload, time.perf_counter() - start

    def close(self) -> None:
        self.conn.close()


# ---------------------------------------------------------------------------
# Setup and one repetition (run by ``worker.py setup|run``)
# ---------------------------------------------------------------------------


class State:
    def __init__(self, seed: int, inputs: Path, tmp: Path) -> None:
        from repro.logs.columnar import parse_chunk
        from repro.logs.ingest import LiveArchive, compact_archive
        from repro.query.source import SEGMENT_CACHE_BYTES
        from repro.server.app import TelemetryServer, run_in_thread

        self.parse_chunk = parse_chunk
        self.LiveArchive = LiveArchive
        self.compact_archive = compact_archive
        self.TelemetryServer = TelemetryServer
        self.run_in_thread = run_in_thread
        self.segment_cache_bytes = SEGMENT_CACHE_BYTES
        self.seed = seed
        self.inputs = inputs
        self.tmp = tmp
        self.spec = json.loads((inputs / "plans.json").read_text(encoding="utf-8"))
        self.probe_bodies = [json.dumps(p).encode() for p in self.spec["probes"]]
        self.query_bodies = [json.dumps(q["plan"]).encode() for q in self.spec["queries"]]
        recorded = load_expected()["digests"]["live-serve"].get(str(seed))
        self.inputs_ok = recorded is None or recorded == self.spec["digests"]
        self.live = self.handle = self.client = None
        self.archive: Path | None = None
        self.start(0)

    def start(self, index: int) -> None:
        """A fresh archive, server and client connection."""
        self.archive = self.tmp / f"archive-{index}"
        self.live = self.LiveArchive.create(self.archive)
        self.handle = self.run_in_thread(self.TelemetryServer(str(self.archive), shard_workers=0))
        self.client = Client(self.handle.server.host, self.handle.server.port)

    def stop(self) -> None:
        if self.handle is not None:
            self.client.close()
            self.handle.stop()
            self.handle = None


def setup(seed: int, inputs: Path, tmp: Path) -> State:
    return State(seed, inputs, tmp)


def teardown(state: State) -> None:
    state.stop()


def _answer(outcome: RepOutcome, what: str, status: int, body: bytes, expected: str, plant: bool) -> dict | None:
    if status != 200:
        outcome.fail(what, f"HTTP {status}: {body[:200]!r}")
        return None
    try:
        payload = json.loads(body)
        columns = [[name, values] for name, values in payload["columns"].items()]
    except (ValueError, KeyError, AttributeError) as exc:
        outcome.fail(what, f"unreadable answer: {exc!r}")
        return None
    if plant and columns and columns[-1][1]:
        columns[-1][1][0] = None
    if payload.get("degraded") or payload.get("partial"):
        outcome.fail(what, "degraded or partial answer")
    elif hashlib.sha256(canonical(columns)).hexdigest() != expected:
        outcome.fail(what, "answer differs from the NumPy oracle")
    return payload


def rep(state: State, tracer, index: int, plant: bool) -> RepOutcome:
    if state.handle is None:
        state.start(index)
    watch = Stopwatch()
    outcome = RepOutcome(wall_s=0.0)
    if not state.inputs_ok:
        outcome.fail("inputs", f"generator output differs from the recording for seed {state.seed}")
    parse_s = commit_s = 0.0
    probe_ms: list[float] = []
    written = 0
    stats = {"shards_scanned": 0, "shards_pruned": 0, "rows_scanned": 0, "rows_output": 0, "cache_hits": 0}
    response_bytes = 0
    n_requests = 0
    non_200 = 0

    def account(status: int, body: bytes, payload: dict | None) -> None:
        nonlocal response_bytes, n_requests, non_200
        n_requests += 1
        response_bytes += len(body)
        non_200 += status != 200
        if payload is not None:
            for key in ("shards_scanned", "shards_pruned", "rows_scanned", "rows_output"):
                stats[key] += int(payload["stats"][key])
            stats["cache_hits"] += bool(payload["stats"]["cache_hit"])

    # -- ingest: parse, commit, probe per window --------------------------
    lines = sum(state.spec["window_lines"])
    input_bytes = 0
    for window in range(len(state.spec["window_lines"])):
        chunk = (state.inputs / f"window-{window:03d}.log").read_bytes()
        input_bytes += len(chunk)
        outcome.attempted += 1
        try:
            with watch.section():
                began = time.perf_counter()
                with tracer.span("logs.parse"):
                    cols = state.parse_chunk(chunk)
                parsed = time.perf_counter()
                with tracer.span("logs.commit"):
                    report = state.live.append_batch({f"window:{window:04d}": cols})
                committed = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - a failed commit is a failed operation
            outcome.fail(f"commit {window}", repr(exc))
            continue
        parse_s += parsed - began
        commit_s += committed - parsed
        written += (state.archive / report.segment).stat().st_size if report.segment else 0
        written += (state.archive / "manifest.json").stat().st_size
        if report.n_records != state.spec["window_lines"][window]:
            outcome.fail(f"commit {window}", f"{report.n_records} records committed")

        outcome.attempted += 1
        try:
            with watch.section():
                status, body, latency = state.client.post(state.probe_bodies[window], tracer)
        except (OSError, http.client.HTTPException) as exc:
            outcome.fail(f"probe {window}", repr(exc))
            continue
        probe_ms.append(1e3 * latency)
        payload = _answer(outcome, f"probe {window}", status, body, state.spec["probe_answers"][window], False)
        account(status, body, payload)

    # -- compaction -----------------------------------------------------------
    outcome.attempted += 1
    before = {p.name for p in state.archive.glob("*.npz")}
    try:
        with watch.section():
            with tracer.span("logs.compact"):
                compaction = state.compact_archive(state.archive)
    except Exception as exc:  # noqa: BLE001
        outcome.fail("compaction", repr(exc))
        compaction = None
    rewritten = sum(p.stat().st_size for p in state.archive.glob("*.npz") if p.name not in before)
    if compaction is not None and compaction.n_records != lines:
        outcome.fail("compaction", f"{compaction.n_records} records rewritten of {lines}")

    # -- queries ------------------------------------------------------------------
    query_ms: dict[str, list[float]] = {}
    for number, (query, body_out) in enumerate(zip(state.spec["queries"], state.query_bodies)):
        outcome.attempted += 1
        try:
            with watch.section():
                status, body, latency = state.client.post(body_out, tracer)
        except (OSError, http.client.HTTPException) as exc:
            outcome.fail(f"query {query['class']}", repr(exc))
            continue
        query_ms.setdefault(query["class"], []).append(1e3 * latency)
        payload = _answer(
            outcome, f"query {query['class']}", status, body, query["answer"], plant and number == 0
        )
        account(status, body, payload)

    io = state.handle.server.engine.source.io
    outcome.wall_s = watch.total
    outcome.data = {
        "lines": lines,
        "input_bytes": input_bytes,
        "parse_s": parse_s,
        "commit_s": commit_s,
        "probe_ms": probe_ms,
        "query_ms": query_ms,
        "written": written,
        "rewritten": rewritten,
        "compaction": compaction.to_dict() if compaction is not None else {},
        "stats": stats,
        "n_requests": n_requests,
        "response_bytes": response_bytes,
        "non_200": non_200,
        "reconnects": state.client.reconnects,
        "source_reads": io.shards_read,
        "source_bytes": io.bytes_read,
        "archive_records": int(state.live.refresh()["n_records"]),
        "segment_cache_bytes": state.segment_cache_bytes,
    }
    state.stop()
    return outcome


def extra_metrics(outcomes: list[RepOutcome]) -> dict:
    """Client-side figures of the untraced repetitions.

    The tail is taken within each repetition, whose plan count is fixed,
    so its percentile does not depend on how many repetitions a run
    holds; the figure is the median over the repetitions.
    """
    queries = [[ms for samples in o.data["query_ms"].values() for ms in samples] for o in outcomes]
    tails = [tail(sample) for sample in queries]
    out = {
        "ingest_lines_s": median(
            o.data["lines"] / (o.data["parse_s"] + o.data["commit_s"]) for o in outcomes
        ),
        "probe_p50_ms": median(ms for o in outcomes for ms in o.data["probe_ms"]),
        "query_p50_ms": median(ms for sample in queries for ms in sample),
        "query_tail_ms": median(value for _pct, value, _n in tails),
        "query_tail_pct": min(pct for pct, _value, _n in tails),
        "query_tail_n": min(n for _pct, _value, n in tails),
    }
    for cls in CLASSES:
        out[f"query.{cls}_p50_ms"] = median(
            ms for o in outcomes for ms in o.data["query_ms"].get(cls, [])
        )
    return out


def layer_metrics(outcome: RepOutcome, tracer) -> dict:
    from repro.logs.columnar import SHARD_COLUMNS

    data = outcome.data
    self_s = tracer.by_name(tracer.self_times())
    commits = self_s.get("logs.commit", [])
    stats = data["stats"]
    scanned, pruned = stats["shards_scanned"], stats["shards_pruned"]
    record_bytes = sum(dtype.itemsize for dtype in SHARD_COLUMNS.values())
    return {
        "logs.parse_s": sum(self_s.get("logs.parse", [])),
        "logs.parse_mb": data["input_bytes"] / MIB,
        "logs.commits": len(commits),
        "logs.commit_s": sum(commits),
        "logs.commit_p50_ms": 1e3 * median(commits),
        "logs.written_mb": data["written"] / MIB,
        "logs.written_per_input": data["written"] / data["input_bytes"],
        "logs.compact_s": sum(self_s.get("logs.compact", [])),
        "logs.compact_entries_in": data["compaction"].get("entries_before", 0),
        "logs.compact_entries_out": data["compaction"].get("entries_after", 0),
        "logs.compact_rewritten_mb": data["rewritten"] / MIB,
        "logs.archive_records": data["archive_records"],
        "logs.archive_decoded_mb": data["archive_records"] * record_bytes / MIB,
        "logs.segment_cache_mb": data["segment_cache_bytes"] / MIB,
        "query.exec_p50_ms": 1e3 * median(tracer.by_name(tracer.durations()).get("query.execute", [])),
        "query.exec_self_s": sum(self_s.get("query.execute", [])),
        "query.shards_scanned": scanned,
        "query.shards_pruned": pruned,
        "query.prune_ratio": pruned / (pruned + scanned) if pruned + scanned else 0.0,
        "query.rows_scanned": stats["rows_scanned"],
        "query.rows_output": stats["rows_output"],
        "query.rows_per_output": stats["rows_scanned"] / max(1, stats["rows_output"]),
        "query.cache_hit_ratio": stats["cache_hits"] / max(1, data["n_requests"]),
        "query.source_reads": data["source_reads"],
        "query.source_mb": data["source_bytes"] / MIB,
        "query.source_self_s": sum(self_s.get("query.source", [])),
        "query.encode_self_s": sum(self_s.get("query.encode", [])),
        "server.self_p50_ms": 1e3 * median(self_s.get("server.request", [])),
        "server.response_mb": data["response_bytes"] / MIB,
        "server.reconnects": data["reconnects"],
        "server.non_200": data["non_200"],
    }
