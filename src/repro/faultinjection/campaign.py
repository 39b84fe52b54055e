"""The year-scale campaign simulator.

Orchestrates every substrate into the study the paper ran:

1. commission the machine (:mod:`repro.cluster`);
2. generate each node's scan sessions from the scheduler + daemon
   stochastics, including the catalogue's pinned sessions and the
   degrading node's monitoring gaps;
3. run every fault model against the session tracks;
4. render observations into scanner ERROR columns (addresses through the
   per-node address map, temperatures through the environment model) and
   assemble them into a per-node columnar archive.

The result object carries both the logs (what the study's disks held) and
the session tracks (ground-truth coverage), which the analysis package
consumes.

Execution
---------

Steps 2-4 are *per-node independent*: every node's session track, fault
models and column rendering consume only per-node RNG streams (pure
functions of ``(seed, key)``).  Step 2 runs a block of nodes at a time
(a block's arrays in one pass, each node's streams drawn as on its own),
once per process; steps 3-4 fan out per node over the
:mod:`repro.parallel` backends.  The only cross-node stages — the Table I
catalogue (one sequential RNG stream threading companion/pair
bookkeeping across nodes) and archive assembly — stay in the parent.
Serial, thread and process runs of the same seed produce bit-identical
archives and tracks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from ..cluster.registry import ClusterRegistry
from ..cluster.topology import OVERHEATING_SOC, NodeId
from ..core.errors import CheckpointError, SimulationError
from ..core.rng import RngFactory
from ..core.units import SCAN_TARGET_MB
from ..dram.addressing import AddressMap, stable_salt
from ..environment.temperature import TemperatureModel
from ..logs.columnar import (
    KIND_ERROR,
    ColumnarArchive,
    RecordColumns,
    canonical_sort_order,
)
from ..logs.frame import ErrorFrame
from ..parallel import (
    RetryPolicy,
    UnitFailure,
    resolve_backend,
    resolve_workers,
    supervised_map,
)
from ..scheduler.batch import BatchScheduler
from ..scheduler.jobs import subtract_node_gaps
from .config import CampaignConfig, paper_campaign_config
from .models import (
    Observation,
    gen_background,
    gen_degrading,
    gen_stuck_node,
    gen_weak_bit,
    plan_catalogue,
    resolve_catalogue,
)
from .sessions import (
    PATTERN_ALTERNATING,
    PATTERN_COUNTING,
    SessionTrack,
    build_session_track,
    daily_terabyte_hours,
)

#: Words in a full 3 GB scan buffer (address-map capacity).
_FULL_WORDS = (SCAN_TARGET_MB * 1024 * 1024) // 4

#: Node-days per block of the session-track front end (scheduler windows,
#: gap cuts, daemon layer) and of the daily TB-hour cut.  A block makes a
#: few NumPy calls in place of a few per node; bounding it by node-days
#: keeps its temporaries to a few MB at any study length.
BLOCK_NODE_DAYS = 8192


def _blocks(names: list[str], n_days: int):
    """``names`` in consecutive blocks of about BLOCK_NODE_DAYS node-days."""
    per_block = max(1, BLOCK_NODE_DAYS // max(1, n_days))
    for lo in range(0, len(names), per_block):
        yield names[lo : lo + per_block]


@dataclass(frozen=True)
class CampaignMetrics:
    """Timing/throughput counters for one campaign run.

    ``node_seconds`` is wall time spent simulating each node inside its
    worker; ``simulate_seconds`` is their sum (a CPU-time proxy), while
    ``wall_seconds`` is end-to-end parent wall time — their ratio is the
    effective parallel speedup.
    """

    backend: str
    workers: int
    wall_seconds: float
    simulate_seconds: float
    n_records: int
    n_observations: int
    n_nodes: int
    node_seconds: dict[str, float] = field(default_factory=dict, repr=False)
    #: Fault-tolerance counters (all zero on an undisturbed run).
    n_retries: int = 0
    n_timeouts: int = 0
    n_pool_rebuilds: int = 0
    #: Units found committed in the stream directory's ledger, so skipped
    #: (they are absent from ``node_seconds``).
    n_resumed: int = 0
    #: Nodes that exhausted their retry budget (see CampaignResult.degraded).
    n_degraded: int = 0

    @property
    def records_per_second(self) -> float:
        return self.n_records / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def slowest_nodes(self, n: int = 5) -> list[tuple[str, float]]:
        ranked = sorted(self.node_seconds.items(), key=lambda kv: -kv[1])
        return ranked[:n]

    def to_dict(self) -> dict:
        """JSON-friendly view (per-node detail reduced to the top talkers)."""
        return {
            "backend": self.backend,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "simulate_seconds": self.simulate_seconds,
            "n_records": self.n_records,
            "n_observations": self.n_observations,
            "n_nodes": self.n_nodes,
            "records_per_second": self.records_per_second,
            "slowest_nodes": dict(self.slowest_nodes()),
            "n_retries": self.n_retries,
            "n_timeouts": self.n_timeouts,
            "n_pool_rebuilds": self.n_pool_rebuilds,
            "n_resumed": self.n_resumed,
            "n_degraded": self.n_degraded,
        }

    def summary(self) -> str:
        """One line: the nodes this run simulated, its records and its rate.

        Resumed units were not simulated, so they leave the node count,
        and a run that resumed any reports no records/s: its archive holds
        records the run did not produce.
        """
        text = (
            f"{self.n_nodes - self.n_resumed} nodes in {self.wall_seconds:.2f} s "
            f"({self.backend}, workers={self.workers}; "
            f"{self.n_records:,} records"
        )
        if not self.n_resumed:
            text += f", {self.records_per_second:,.0f} records/s"
        text += ")"
        extras = []
        if self.n_resumed:
            extras.append(f"{self.n_resumed} units resumed from the stream")
        if self.n_retries:
            extras.append(f"{self.n_retries} retries")
        if self.n_timeouts:
            extras.append(f"{self.n_timeouts} watchdog timeouts")
        if self.n_pool_rebuilds:
            extras.append(f"{self.n_pool_rebuilds} pool rebuilds")
        if self.n_degraded:
            extras.append(f"{self.n_degraded} nodes degraded")
        if extras:
            text += " [" + ", ".join(extras) + "]"
        return text


@dataclass(frozen=True)
class DegradedResult:
    """Dead-blade accounting for a campaign that lost nodes.

    The paper reports its study over 923 scanned of 945 slots rather than
    aborting on dead blades; a campaign run with a retry policy whose
    nodes exhaust their budget likewise completes over the surviving
    population and reports the casualties here instead of raising.
    """

    #: One entry per lost node (``key`` is the node name).
    nodes: tuple[UnitFailure, ...]
    n_planned: int

    @property
    def n_failed(self) -> int:
        return len(self.nodes)

    @property
    def n_completed(self) -> int:
        return self.n_planned - self.n_failed

    def names(self) -> list[str]:
        return [entry.key for entry in self.nodes]

    def summary(self) -> str:
        failed = ", ".join(
            f"{e.key} ({e.kind} after {e.attempts} attempts"
            + (f": {e.error})" if e.error else ")")
            for e in self.nodes
        )
        return (
            f"degraded campaign: {self.n_completed} of {self.n_planned} "
            f"nodes completed; lost {failed}"
        )


@dataclass
class CampaignResult:
    """Everything a simulated study produced."""

    config: CampaignConfig
    registry: ClusterRegistry
    tracks: dict[str, SessionTrack]
    #: Every node's records, assembled in memory or read back from the
    #: stream directory on a streamed run.
    archive: ColumnarArchive
    n_observations: int
    _frames: dict = field(default_factory=dict, repr=False)
    #: Execution counters of the run that produced this result (None for
    #: results reloaded from disk or from the campaign cache).
    metrics: CampaignMetrics | None = field(default=None, repr=False)
    #: Dead-blade accounting: set when nodes exhausted their retry budget
    #: and the campaign completed over the surviving population (None for
    #: a fully healthy run).
    degraded: DegradedResult | None = None

    # -- raw-log level -------------------------------------------------------

    def n_raw_error_lines(self) -> int:
        """The paper's ">25 million error logs" figure."""
        return self.archive.n_raw_error_lines()

    def raw_frame(self) -> ErrorFrame:
        """All ERROR records as an array table (pre-extraction)."""
        if "raw" not in self._frames:
            self._frames["raw"] = self.archive.error_frame().sorted_by_time()
        return self._frames["raw"]

    # -- coverage level -----------------------------------------------------

    def monitored_hours_by_node(self) -> dict[str, float]:
        return {n: t.monitored_hours for n, t in self.tracks.items()}

    def terabyte_hours_by_node(self) -> dict[str, float]:
        return {n: t.terabyte_hours for n, t in self.tracks.items()}

    def total_node_hours(self) -> float:
        return float(sum(t.monitored_hours for t in self.tracks.values()))

    def total_terabyte_hours(self) -> float:
        return float(sum(t.terabyte_hours for t in self.tracks.values()))

    def daily_terabyte_hours(self) -> np.ndarray:
        """Fig 9's daily TB-hours: node rows added in track order."""
        n_days = self.config.n_days
        out = np.zeros(n_days, dtype=np.float64)
        for block in _blocks(list(self.tracks), n_days):
            for row in daily_terabyte_hours([self.tracks[n] for n in block], n_days):
                out += row
        return out

    @cached_property
    def study_hours(self) -> float:
        return self.config.n_days * 24.0


def _insert_pinned(track: SessionTrack, pinned) -> SessionTrack:
    """Append a node's pinned catalogue sessions to its stochastic track."""
    if not pinned:
        return track
    starts = np.concatenate([track.starts, [p.pinned[0] for p in pinned]])
    ends = np.concatenate([track.ends, [p.pinned[1] for p in pinned]])
    alloc = np.concatenate(
        [track.alloc_mb, np.full(len(pinned), SCAN_TARGET_MB, dtype=np.int64)]
    )
    pattern_codes = [
        PATTERN_COUNTING if p.pattern.uses_counting_pattern else PATTERN_ALTERNATING
        for p in pinned
    ]
    pattern = np.concatenate([track.pattern, np.asarray(pattern_codes, dtype=np.int8)])
    order = np.argsort(starts, kind="stable")
    return SessionTrack(
        node=track.node,
        starts=starts[order],
        ends=ends[order],
        alloc_mb=alloc[order],
        pattern=pattern[order],
        n_truncated=track.n_truncated,
    )


class _CampaignContext:
    """Shared deterministic state, rebuilt identically in every process.

    Everything here is a pure function of the config: the registry, the
    scheduler (which derives per-node streams via ``fresh``), the
    temperature field, the catalogue plan (which consumes exactly the
    ``catalogue/plan`` stream) and every node's session track.  Worker
    processes rebuild it once via the pool initializer instead of
    pickling it into every task.
    """

    def __init__(self, config: CampaignConfig):
        self.config = config
        self.rngs = RngFactory(config.seed)
        self.registry = ClusterRegistry(config.topology)
        self.scheduler = BatchScheduler(
            self.registry,
            config.calendar,
            config.activity,
            rng_factory=self.rngs,
            n_days=config.n_days,
        )
        self.temperature = TemperatureModel(seed=config.seed)
        self.plans = plan_catalogue(config, self.rngs.get("catalogue/plan"))
        self.pinned: dict[str, list] = {}
        for plan in self.plans:
            if plan.pinned is not None:
                self.pinned.setdefault(plan.node, []).append(plan)
        self.reserved = config.reserved_nodes()
        self.weak_by_node = {w.node: w for w in config.weak_bits}
        self.gap_hours = {
            config.degrading.node: [
                (g0 * 24.0, g1 * 24.0)
                for g0, g1 in config.degrading.monitoring_gaps
            ]
        }
        self.nodes_by_name = {
            str(node.node_id): node for node in self.registry.scanned_nodes()
        }
        self._maps: dict[str, AddressMap] = {}
        self._node_ids: dict[str, NodeId] = {}
        self._tracks: dict[str, SessionTrack] | None = None

    def address_map(self, name: str) -> AddressMap:
        amap = self._maps.get(name)
        if amap is None:
            amap = AddressMap(n_words=_FULL_WORDS, salt=stable_salt(name))
            self._maps[name] = amap
        return amap

    def node_id(self, name: str) -> NodeId:
        node_id = self._node_ids.get(name)
        if node_id is None:
            node_id = NodeId.parse(name)
            self._node_ids[name] = node_id
        return node_id

    def tracks(self) -> dict[str, SessionTrack]:
        """Every scanned node's session track (built on first use)."""
        if self._tracks is None:
            self._tracks = {}
            for block in _blocks(list(self.nodes_by_name), self.config.n_days):
                self._tracks.update(zip(block, self._block_tracks(block)))
        return self._tracks

    def _block_tracks(self, names: list[str]) -> list[SessionTrack]:
        """Scheduler windows -> gap cuts -> daemon layer for a block of nodes.

        Each node's windows lose its power-off spans (in the scheduler),
        then the degrading node's monitoring gaps and its pinned catalogue
        sessions; the pinned sessions then join the track.
        """
        config = self.config
        starts, ends, bounds = self.scheduler.node_windows(
            [self.nodes_by_name[name] for name in names]
        )
        gaps = {}
        for i, name in enumerate(names):
            cut = self.gap_hours.get(name, []) + [p.pinned for p in self.pinned.get(name, [])]
            if cut:
                gaps[i] = cut
        starts, ends, bounds = subtract_node_gaps(starts, ends, bounds, gaps)
        tracks = build_session_track(
            names,
            starts,
            ends,
            bounds,
            [self.rngs.fresh(f"daemon/{name}") for name in names],
            p_full_alloc=config.p_full_alloc,
            p_alloc_fail=config.p_alloc_fail,
            leak_mean_mb=config.leak_mean_mb,
            p_truncation=config.p_truncation,
            p_counting=[
                0.0 if name in self.reserved else config.p_counting for name in names
            ],
        )
        return [_insert_pinned(track, self.pinned.get(track.node)) for track in tracks]

    def render(self, observations: list[Observation]) -> RecordColumns:
        """Observations -> ERROR columns (addresses + temperature).

        Addresses are mapped, and temperatures read, with one array call
        per node; node codes follow each node's first observation.
        """
        n = len(observations)
        rows_by_node: dict[str, list[int]] = {}
        for i, obs in enumerate(observations):
            rows_by_node.setdefault(obs.node, []).append(i)
        words = np.array([obs.word_index for obs in observations], dtype=np.int64)
        times = np.array([obs.time_hours for obs in observations], dtype=np.float64)
        va = np.empty(n, dtype=np.int64)
        pp = np.empty(n, dtype=np.int64)
        temp = np.empty(n, dtype=np.float64)
        node_code = np.empty(n, dtype=np.int32)
        for code, (name, rows) in enumerate(rows_by_node.items()):
            amap = self.address_map(name)
            va[rows] = amap.virtual_address(words[rows])
            pp[rows] = amap.physical_page(words[rows])
            temp[rows] = self.temperature.reading(self.node_id(name), times[rows])
            node_code[rows] = code
        return RecordColumns(
            kind=np.full(n, KIND_ERROR, dtype=np.uint8),
            t=times,
            temp=temp,
            mb=np.zeros(n, dtype=np.int64),
            va=va,
            pp=pp,
            expected=np.array([obs.expected for obs in observations], dtype=np.uint32),
            actual=np.array([obs.actual for obs in observations], dtype=np.uint32),
            rep=np.array([obs.repeat_count for obs in observations], dtype=np.int64),
            node_code=node_code,
            node_names=list(rows_by_node),
        )


@dataclass
class _NodeResult:
    """One node's finished work unit, shipped back to the parent."""

    node: str
    track: SessionTrack
    #: The node's ERROR rows, one per observation (None once a streamed
    #: run has taken them into its flush window).
    columns: RecordColumns | None
    seconds: float


def _simulate_node(ctx: _CampaignContext, name: str) -> _NodeResult:
    """The embarrassingly-parallel unit: one node's faults and ERROR rows.

    The node's session track comes from the context's block pass.  The
    unit consumes only per-node RNG streams (``bg/<n>``, ``weak/<n>``)
    plus the single-consumer ``stuck``/``degrading`` streams on their
    dedicated nodes — the same streams, in the same order, as a serial
    run, so the output is bit-identical regardless of backend.
    """
    t_begin = time.perf_counter()
    config = ctx.config
    node = ctx.nodes_by_name[name]
    rngs = ctx.rngs.spawn()
    track = ctx.tracks()[name]

    # -- fault models -------------------------------------------------------
    observations: list[Observation] = []
    weak_cfg = ctx.weak_by_node.get(name)
    if track.n_sessions > 0:
        if weak_cfg is not None:
            observations.extend(
                gen_weak_bit(track, weak_cfg, rngs.get(f"weak/{name}"), config.n_days)
            )
        elif name not in ctx.reserved:
            bg = config.background
            rate = bg.rate_per_node_hour
            if node.node_id.soc == OVERHEATING_SOC:
                rate *= bg.overheating_rate_multiplier
            if rate != bg.rate_per_node_hour:
                bg = replace(bg, rate_per_node_hour=rate)
            observations.extend(gen_background(track, bg, rngs.get(f"bg/{name}")))
    if name == config.stuck.node:
        observations.extend(gen_stuck_node(track, config.stuck, rngs.get("stuck")))
    if name == config.degrading.node:
        observations.extend(
            gen_degrading(track, config.degrading, rngs.get("degrading"), config.n_days)
        )

    # -- render -------------------------------------------------------------
    return _NodeResult(
        node=name,
        track=track,
        columns=ctx.render(observations),
        seconds=time.perf_counter() - t_begin,
    )


#: Per-process context for the process backend (set by the pool initializer).
_WORKER_CTX: _CampaignContext | None = None


def _init_worker(config: CampaignConfig) -> None:
    global _WORKER_CTX
    _WORKER_CTX = _CampaignContext(config)
    _WORKER_CTX.tracks()


def _node_worker(name: str) -> _NodeResult:
    assert _WORKER_CTX is not None, "worker used before initialization"
    return _simulate_node(_WORKER_CTX, name)


def _open_stream(path: str | Path, config: CampaignConfig):
    """Open ``path`` as this campaign's live archive, refusing any other.

    The campaign's config digest enters the ledger as an empty
    ``campaign:<digest>`` batch before the first unit.  A directory whose
    ledger or shards hold anything else (another campaign, ``repro
    ingest`` batches, an archive streamed before the marker existed)
    raises :class:`CheckpointError`: its committed units would be
    skipped as this campaign's.
    """
    from ..cache import config_digest
    from ..logs.ingest import LiveArchive

    live = LiveArchive.create(path)
    mark = f"campaign:{config_digest(config)}"
    ledger = live.committed_batches
    if (ledger or live.manifest["shards"]) and mark not in ledger:
        owners = [batch for batch in ledger if batch.startswith("campaign:")]
        raise CheckpointError(
            f"stream directory {path} holds "
            + (f"another campaign ({owners[0]})" if owners else "records of no campaign")
            + f", not {mark}: stream this campaign into an empty directory"
        )
    live.append_batch({mark: RecordColumns.empty()})
    return live


def run_campaign(
    config: CampaignConfig | None = None,
    workers: int | None = None,
    backend: str | None = None,
    *,
    retry: RetryPolicy | None = None,
    unit_timeout: float | None = None,
    chaos=None,
    stream_to: str | Path | None = None,
    stream_flush_nodes: int = 64,
) -> CampaignResult:
    """Simulate the full study and return its logs and coverage.

    ``workers``/``backend`` override the config's execution fields: the
    per-node phase fans out over :func:`repro.parallel.supervised_map`.
    Results are bit-identical across backends for the same seed.  Each
    unit returns its ERROR rows as :class:`RecordColumns`, so process
    workers hand back arrays.  The in-memory archive is one concatenation
    of the unit columns and the catalogue's, sorted per node.

    Fault tolerance:

    * ``retry`` re-runs a failed node within its budget — per-node RNG
      streams are pure functions of ``(seed, key)`` and units are
      side-effect-free, so retries never change results;
    * ``unit_timeout`` is the per-node watchdog (process backend);
    * with a ``retry`` policy, nodes that exhaust the budget are
      reported in :attr:`CampaignResult.degraded` (the paper's
      dead-blade accounting); with ``retry=None`` a lost node raises
      :class:`~repro.core.errors.SimulationError` naming it, once every
      other unit has finished (and, on a streamed run, been committed);
    * ``chaos`` (a :class:`repro.chaos.ChaosPlan`) injects deterministic
      failures for testing.

    ``stream_to`` routes finished units straight into a live columnar
    archive (:class:`repro.logs.ingest.LiveArchive`) instead of holding
    every node's records in parent RAM: each unit's columns leave the
    in-memory result as they arrive, and every ``stream_flush_nodes``
    completed units are committed as one level-0 segment.  The returned
    :class:`CampaignResult` then carries the :class:`ColumnarArchive`
    loaded from that directory — bit-identical, record for record, to the
    archive the same configuration assembles in memory.

    The stream directory is also the campaign's checkpoint.  Its ledger
    names the campaign (``campaign:<config digest>``, committed before
    the first unit; a directory holding anything else raises
    :class:`~repro.core.errors.CheckpointError`) and every committed
    ``unit:<node>``.  A run on a directory that already holds units of
    the same campaign skips them (:attr:`CampaignMetrics.n_resumed`;
    their tracks come from the parent's block pass) and simulates the
    rest, so a killed or degraded campaign resumes bit-identically by
    running it again.  The digest leaves out ``workers``/``backend``: a
    run killed on 8 processes can resume serially.

    ``n_observations`` is the archive's ERROR-record count (one per
    observation).
    """
    t_begin = time.perf_counter()
    config = config or paper_campaign_config()
    config.validate()
    n_workers = resolve_workers(workers if workers is not None else config.workers)
    exec_backend = resolve_backend(
        backend if backend is not None else config.backend, n_workers
    )

    ctx = _CampaignContext(config)
    names = list(ctx.nodes_by_name)
    remaining = names
    on_result = None
    n_resumed = 0
    if stream_to is not None:
        live = _open_stream(stream_to, config)
        committed = set(live.committed_batches)
        remaining = [name for name in names if f"unit:{name}" not in committed]
        n_resumed = len(names) - len(remaining)
        flush_every = max(1, int(stream_flush_nodes))
        window: dict[str, RecordColumns] = {}

        def _flush_stream() -> None:
            if window:
                live.append_batch(
                    {f"unit:{key}": cols for key, cols in window.items()}
                )
                window.clear()

        def on_result(_i, key, value) -> None:
            # Take the columns out of `value`, the object the supervisor
            # keeps in its outcome, so the parent never holds more than
            # one flush window of records in RAM.
            window[key] = value.columns
            value.columns = None
            if len(window) >= flush_every:
                _flush_stream()

    # -- parallel phase: per-node models + rendering -----------------------
    # Every process (the serial/thread parent or each process worker)
    # builds all session tracks once, in blocks, before its first unit.
    if exec_backend == "process":
        fn, initializer, initargs = _node_worker, _init_worker, (config,)
    else:
        fn, initializer, initargs = (
            lambda name: _simulate_node(ctx, name), ctx.tracks, ()
        )
    outcome = supervised_map(
        fn,
        remaining,
        keys=remaining,
        backend=exec_backend,
        workers=n_workers,
        initializer=initializer,
        initargs=initargs,
        retry=retry,
        unit_timeout=unit_timeout,
        chaos=chaos,
        on_unit_result=on_result,
    )
    if stream_to is not None:
        _flush_stream()  # the tail window

    degraded: DegradedResult | None = None
    if outcome.failures:
        degraded = DegradedResult(nodes=tuple(outcome.failures), n_planned=len(names))
        if retry is None:
            raise SimulationError(degraded.summary())
    results: list[_NodeResult] = [v for v in outcome.values if v is not None]

    lost = set(degraded.names()) if degraded is not None else set()
    by_node = {result.node: result for result in results}
    tracks = {
        name: by_node[name].track if name in by_node else ctx.tracks()[name]
        for name in names
        if name not in lost
    }

    # -- sequential phase: catalogue resolution + archive assembly ---------
    # resolve_catalogue skips plans whose node has no track, so a
    # degraded population degrades the catalogue the same way the paper's
    # dead blades shrank its Table I population.
    catalogue = ctx.render(
        resolve_catalogue(ctx.plans, tracks, config, ctx.rngs.get("catalogue/resolve"))
    )

    if stream_to is not None:
        # The catalogue is one RNG stream over the whole population.  A
        # run that lost a node carrying a catalogue fault leaves it
        # uncommitted: once in the ledger, a resume could not replace it.
        if not lost & {plan.node for plan in ctx.plans}:
            live.append_batch({"catalogue": catalogue})
        archive = ColumnarArchive.load(stream_to)
    else:
        # Per node, canonical order; rows tied on time and kind keep the
        # concatenation's order (units, then the catalogue).
        merged = RecordColumns.concat([r.columns for r in results] + [catalogue])
        order = canonical_sort_order(merged.t, merged.kind, group=merged.node_code)
        archive = ColumnarArchive(merged.take(order).split_by_node())
    n_observations = archive.n_errors()

    wall = time.perf_counter() - t_begin
    node_seconds = {result.node: result.seconds for result in results}
    metrics = CampaignMetrics(
        backend=exec_backend,
        workers=n_workers,
        wall_seconds=wall,
        simulate_seconds=float(sum(node_seconds.values())),
        n_records=archive.n_records(),
        n_observations=n_observations,
        n_nodes=len(names),
        node_seconds=node_seconds,
        n_retries=outcome.n_retries,
        n_timeouts=outcome.n_timeouts,
        n_pool_rebuilds=outcome.n_pool_rebuilds,
        n_resumed=n_resumed,
        n_degraded=0 if degraded is None else degraded.n_failed,
    )

    return CampaignResult(
        config=config,
        registry=ctx.registry,
        tracks=tracks,
        archive=archive,
        n_observations=n_observations,
        metrics=metrics,
        degraded=degraded,
    )
