"""Per-node degradation features, expressed as query-engine plans.

A feature vector describes one node's error behaviour in the windows
*ending at* a reference instant ``t0``.  Everything is phrased as
:class:`repro.query.plan.Query` objects executed by a
:class:`~repro.query.engine.QueryEngine`, so extraction prunes shards,
reuses the engine's result cache, and works identically on compacted
archives, live archives mid-ingest, and in-memory campaign output.

Leak-freedom is a *structural* property here: every plan
:func:`feature_plans` builds constrains the time column to
``t < t0``.  The dataset tests assert this over the plan objects
themselves (see ``tests/ml/test_dataset.py``), which is a stronger
guarantee than spot-checking extracted values.

Feature schema (``feature_names(spec)``, order is the artifact order):

* per window ``w`` in ``spec.windows_hours``: ``count_{w}h`` (errors in
  ``[t0-w, t0)``) and ``rate_{w}h`` (errors/hour);
* over the largest window: ``multibit_count`` / ``multibit_frac``
  (rows flipping >= 2 bits), ``mean_bits`` (mean flipped-bit count),
  ``mean_temp_c`` + ``temp_known_frac`` (temperature covariate),
  ``night_frac`` (diurnal mix: fraction of errors in
  ``[night_lo, night_hi)`` o'clock);
* stream shape: ``recency_h`` (hours since the node's last error,
  clamped to the lookback), ``interarrival_mean_h`` /
  ``interarrival_min_h``, and ``burst_ratio`` (shortest-window rate
  over longest-window rate — the "is it accelerating" signal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..logs.columnar import (
    KIND_END,
    KIND_ERROR,
    KIND_START,
    ColumnarArchive,
    RecordColumns,
)
from ..logs.frame import ErrorFrame
from ..query.engine import QueryEngine
from ..query.plan import Aggregate, Derive, Predicate, Query
from ..query.source import MemorySource


@dataclass(frozen=True)
class FeatureSpec:
    """Window geometry and label definition for the predictor.

    ``label_threshold`` follows the paper's degraded-day criterion:
    a node is *degrading* at ``t0`` when more than three errors arrive
    within the next ``horizon_hours`` (Sec III-I / Table II trigger).
    """

    windows_hours: tuple[float, ...] = (24.0, 72.0, 168.0)
    horizon_hours: float = 24.0
    label_threshold: int = 4
    night_hours: tuple[int, int] = (0, 6)

    def __post_init__(self) -> None:
        if not self.windows_hours:
            raise ValueError("need at least one feature window")
        if any(w <= 0 for w in self.windows_hours):
            raise ValueError("feature windows must be positive")
        if tuple(sorted(self.windows_hours)) != tuple(self.windows_hours):
            raise ValueError("feature windows must be sorted ascending")
        if self.horizon_hours <= 0:
            raise ValueError("label horizon must be positive")
        if self.label_threshold < 1:
            raise ValueError("label threshold must be >= 1")
        lo, hi = self.night_hours
        if not (0 <= lo < hi <= 24):
            raise ValueError("night_hours must satisfy 0 <= lo < hi <= 24")

    @property
    def lookback_hours(self) -> float:
        """History a feature vector at ``t0`` may reach back into."""
        return float(self.windows_hours[-1])

    def to_dict(self) -> dict:
        return {
            "windows_hours": list(self.windows_hours),
            "horizon_hours": self.horizon_hours,
            "label_threshold": self.label_threshold,
            "night_hours": list(self.night_hours),
        }

    @classmethod
    def from_dict(cls, spec: dict) -> "FeatureSpec":
        return cls(
            windows_hours=tuple(float(w) for w in spec["windows_hours"]),
            horizon_hours=float(spec["horizon_hours"]),
            label_threshold=int(spec["label_threshold"]),
            night_hours=tuple(int(h) for h in spec["night_hours"]),
        )


def _window_tag(hours: float) -> str:
    return f"{hours:g}h"


def feature_names(spec: FeatureSpec) -> tuple[str, ...]:
    """The canonical feature order (artifacts pin this)."""
    names: list[str] = []
    for w in spec.windows_hours:
        names.append(f"count_{_window_tag(w)}")
        names.append(f"rate_{_window_tag(w)}")
    names += [
        "multibit_count",
        "multibit_frac",
        "mean_bits",
        "mean_temp_c",
        "temp_known_frac",
        "night_frac",
        "recency_h",
        "interarrival_mean_h",
        "interarrival_min_h",
        "burst_ratio",
    ]
    return tuple(names)


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


def _window_filters(t0: float, window_hours: float) -> tuple[Predicate, ...]:
    return (
        Predicate("kind", "eq", int(KIND_ERROR)),
        Predicate("t", "ge", float(t0) - float(window_hours)),
        Predicate("t", "lt", float(t0)),
    )


def feature_plans(t0: float, spec: FeatureSpec) -> dict[str, Query]:
    """Every plan behind one feature extraction, keyed by role.

    Keys: ``count_{w}h`` (one per window), ``multibit``, ``bits``,
    ``temperature``, ``night``, ``scan`` (the row-mode plan the
    inter-arrival statistics are computed from).  All of them bound the
    time column strictly below ``t0`` — the leak-free property tests
    introspect exactly this dict.
    """
    lookback = spec.lookback_hours
    plans: dict[str, Query] = {}
    for w in spec.windows_hours:
        plans[f"count_{_window_tag(w)}"] = Query(
            filters=_window_filters(t0, w),
            group_by=("node",),
            aggregates=(Aggregate("count"),),
        )
    plans["multibit"] = Query(
        filters=_window_filters(t0, lookback)
        + (Predicate("n_bits", "ge", 2),),
        derive=(Derive("n_bits", "n_bits"),),
        group_by=("node",),
        aggregates=(Aggregate("count"),),
    )
    plans["bits"] = Query(
        filters=_window_filters(t0, lookback),
        derive=(Derive("n_bits", "n_bits"),),
        group_by=("node",),
        aggregates=(Aggregate("mean", column="n_bits"),),
    )
    plans["temperature"] = Query(
        filters=_window_filters(t0, lookback)
        + (Predicate("temp", "notnull"),),
        derive=(Derive("temp_c", "temp_c"),),
        group_by=("node",),
        aggregates=(Aggregate("count"), Aggregate("mean", column="temp_c")),
    )
    lo, hi = spec.night_hours
    plans["night"] = Query(
        filters=_window_filters(t0, lookback)
        + (Predicate("hour", "ge", int(lo)), Predicate("hour", "lt", int(hi))),
        derive=(Derive("hour", "hour"),),
        group_by=("node",),
        aggregates=(Aggregate("count"),),
    )
    plans["scan"] = Query(
        filters=_window_filters(t0, lookback),
        project=("node", "t"),
        order_by=("node", "t"),
    )
    return plans


def label_plan(t0: float, spec: FeatureSpec) -> Query:
    """Per-node error count over the label horizon ``[t0, t0+horizon)``."""
    return Query(
        filters=(
            Predicate("kind", "eq", int(KIND_ERROR)),
            Predicate("t", "ge", float(t0)),
            Predicate("t", "lt", float(t0) + spec.horizon_hours),
        ),
        group_by=("node",),
        aggregates=(Aggregate("count"),),
    )


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


@dataclass
class FeatureMatrix:
    """One row per node, columns in :func:`feature_names` order."""

    nodes: tuple[str, ...]
    names: tuple[str, ...]
    X: np.ndarray  # (n_nodes, n_features) float64
    t0: float

    def __post_init__(self) -> None:
        if self.X.shape != (len(self.nodes), len(self.names)):
            raise ValueError(
                f"feature matrix shape {self.X.shape} does not match "
                f"{len(self.nodes)} nodes x {len(self.names)} features"
            )

    def row(self, node: str) -> np.ndarray:
        return self.X[self.nodes.index(node)]


def _as_engine(target) -> QueryEngine:
    return target if isinstance(target, QueryEngine) else QueryEngine(target)


def _node_universe(engine: QueryEngine, nodes: Sequence[str] | None) -> tuple[str, ...]:
    if nodes is not None:
        return tuple(nodes)
    return engine.source.shards().nodes


def _scatter(
    index: dict[str, int], result, column: str, out: np.ndarray
) -> None:
    """Scatter one grouped column into the node-universe vector."""
    keys = result.column("node")
    values = np.asarray(result.column(column), dtype=np.float64)
    for i in range(values.shape[0]):
        slot = index.get(str(keys[i]))
        if slot is not None:
            out[slot] = values[i]


def extract_features(
    target,
    t0: float,
    spec: FeatureSpec | None = None,
    *,
    nodes: Sequence[str] | None = None,
) -> FeatureMatrix:
    """Extract the feature matrix for every node at reference time ``t0``.

    ``target`` is anything :class:`~repro.query.engine.QueryEngine`
    accepts (archive path, source, engine).  Nodes absent from a plan's
    output get that feature's quiet default (0 counts, lookback-length
    recency/inter-arrival), so a silent node scores as healthy rather
    than as missing data.
    """
    spec = spec or FeatureSpec()
    engine = _as_engine(target)
    universe = _node_universe(engine, nodes)
    index = {name: i for i, name in enumerate(universe)}
    names = feature_names(spec)
    col = {name: j for j, name in enumerate(names)}
    n = len(universe)
    lookback = spec.lookback_hours
    X = np.zeros((n, len(names)), dtype=np.float64)
    X[:, col["recency_h"]] = lookback
    X[:, col["interarrival_mean_h"]] = lookback
    X[:, col["interarrival_min_h"]] = lookback

    plans = feature_plans(t0, spec)
    for w in spec.windows_hours:
        tag = _window_tag(w)
        counts = np.zeros(n, dtype=np.float64)
        _scatter(index, engine.execute(plans[f"count_{tag}"]), "count", counts)
        X[:, col[f"count_{tag}"]] = counts
        X[:, col[f"rate_{tag}"]] = counts / float(w)

    total = X[:, col[f"count_{_window_tag(lookback)}"]]
    denom = np.maximum(total, 1.0)

    multibit = np.zeros(n, dtype=np.float64)
    _scatter(index, engine.execute(plans["multibit"]), "count", multibit)
    X[:, col["multibit_count"]] = multibit
    X[:, col["multibit_frac"]] = multibit / denom

    _scatter(index, engine.execute(plans["bits"]), "mean_n_bits",
             X[:, col["mean_bits"]])

    temp_result = engine.execute(plans["temperature"])
    temp_known = np.zeros(n, dtype=np.float64)
    _scatter(index, temp_result, "count", temp_known)
    _scatter(index, temp_result, "mean_temp_c", X[:, col["mean_temp_c"]])
    X[:, col["temp_known_frac"]] = temp_known / denom

    night = np.zeros(n, dtype=np.float64)
    _scatter(index, engine.execute(plans["night"]), "count", night)
    X[:, col["night_frac"]] = night / denom

    _interarrival_stats(engine.execute(plans["scan"]), index, t0, lookback,
                        X, col)

    shortest, longest = spec.windows_hours[0], spec.windows_hours[-1]
    rate_short = X[:, col[f"rate_{_window_tag(shortest)}"]]
    rate_long = X[:, col[f"rate_{_window_tag(longest)}"]]
    X[:, col["burst_ratio"]] = rate_short / np.maximum(rate_long, 1e-9)

    return FeatureMatrix(nodes=universe, names=names, X=X, t0=float(t0))


def _interarrival_stats(
    scan_result,
    index: dict[str, int],
    t0: float,
    lookback: float,
    X: np.ndarray,
    col: dict[str, int],
) -> None:
    """Recency and inter-arrival features from the row-mode scan plan.

    The plan orders rows by (node, t), so each node's times are one
    contiguous ascending run; boundaries come from one pass over the
    node column.
    """
    node_col = scan_result.column("node")
    times = np.asarray(scan_result.column("t"), dtype=np.float64)
    if times.shape[0] == 0:
        return
    # Run boundaries in the (node, t)-ordered output.
    change = np.empty(node_col.shape[0], dtype=bool)
    change[0] = True
    change[1:] = node_col[1:] != node_col[:-1]
    starts = np.flatnonzero(change)
    stops = np.append(starts[1:], node_col.shape[0])
    for lo, hi in zip(starts, stops):
        slot = index.get(str(node_col[lo]))
        if slot is None:
            continue
        run = times[lo:hi]
        X[slot, col["recency_h"]] = min(float(t0) - float(run[-1]), lookback)
        if hi - lo >= 2:
            gaps = np.diff(run)
            X[slot, col["interarrival_mean_h"]] = float(gaps.mean())
            X[slot, col["interarrival_min_h"]] = float(gaps.min())


def extract_labels(
    target,
    t0: float,
    spec: FeatureSpec | None = None,
    *,
    nodes: Sequence[str],
) -> np.ndarray:
    """Binary degradation labels for ``nodes`` at reference time ``t0``.

    1 when the node logs at least ``spec.label_threshold`` errors in
    ``[t0, t0 + horizon)``; 0 otherwise.
    """
    spec = spec or FeatureSpec()
    engine = _as_engine(target)
    index = {name: i for i, name in enumerate(nodes)}
    counts = np.zeros(len(nodes), dtype=np.float64)
    _scatter(index, engine.execute(label_plan(t0, spec)), "count", counts)
    return (counts >= float(spec.label_threshold)).astype(np.int8)


# ---------------------------------------------------------------------------
# Frame adapter
# ---------------------------------------------------------------------------


def source_from_frame(frame: ErrorFrame) -> MemorySource:
    """A query source over an in-memory :class:`ErrorFrame`.

    Lets the predictor run on analysis output (e.g. the paper
    campaign's extracted errors) without writing an archive.  Each
    error row becomes one ERROR record; START/END sentinels carry the
    observation span so zone maps stay meaningful.
    """
    by_node: dict[str, RecordColumns] = {}
    t_lo = float(frame.time_hours.min()) if len(frame) else 0.0
    t_hi = float(frame.time_hours.max()) if len(frame) else 0.0
    for code, name in enumerate(frame.node_names):
        mask = frame.node_code == np.int32(code)
        k = int(mask.sum())
        if not k:
            continue
        n = k + 2
        kind = np.full(n, KIND_ERROR, dtype=np.uint8)
        kind[0], kind[-1] = KIND_START, KIND_END
        t = np.empty(n, dtype=np.float64)
        t[0], t[-1] = t_lo, t_hi
        t[1:-1] = frame.time_hours[mask]
        temp = np.full(n, np.nan, dtype=np.float64)
        temp[1:-1] = frame.temperature_c[mask].astype(np.float64)
        expected = np.zeros(n, dtype=np.uint32)
        expected[1:-1] = frame.expected[mask]
        actual = np.zeros(n, dtype=np.uint32)
        actual[1:-1] = frame.actual[mask]
        va = np.zeros(n, dtype=np.int64)
        va[1:-1] = frame.virtual_address[mask]
        pp = np.zeros(n, dtype=np.int64)
        pp[1:-1] = frame.physical_page[mask]
        rep = np.ones(n, dtype=np.int64)
        rep[1:-1] = frame.repeat_count[mask]
        by_node[name] = RecordColumns(
            kind=kind,
            t=t,
            temp=temp,
            mb=np.zeros(n, dtype=np.int64),
            va=va,
            pp=pp,
            expected=expected,
            actual=actual,
            rep=rep,
            node_code=np.zeros(n, dtype=np.int32),
            node_names=[name],
        )
    return MemorySource(ColumnarArchive(by_node))
