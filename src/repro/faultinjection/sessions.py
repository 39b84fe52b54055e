"""Vectorized scan-session tracks for the year-scale campaign.

A :class:`SessionTrack` holds every scan session of one node as parallel
NumPy arrays (start, end, allocated MB, pattern, iteration period), plus
the sampling primitives the fault models need: locate the session covering
a time, sample uniform times inside covered time, round an event time up
to the scanner iteration that detects it.

Tracks are built a block of nodes at a time from the scheduler's
``(starts, ends, bounds)`` idle-window arrays, with the daemon's
stochastic layer (allocation backoff, rare hard-reboot truncations)
applied in bulk rather than per window or per node — the paper-scale
campaign has ~10^6 windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.records import ScanSession
from ..core.units import ALLOC_BACKOFF_MB, SCAN_TARGET_MB
from ..scheduler.jobs import merge_touching

#: Pattern codes stored in the track arrays.
PATTERN_ALTERNATING = 0
PATTERN_COUNTING = 1

#: Wall-clock duration of one full scan pass over 3 GB, in hours (~10 s —
#: a streaming write+verify of 3 GB on the prototype's LPDDR).
BASE_ITER_HOURS = 10.0 / 3600.0


@dataclass
class SessionTrack:
    """All (non-truncated) scan sessions of one node, as arrays."""

    node: str
    starts: np.ndarray       # f8, sorted
    ends: np.ndarray         # f8
    alloc_mb: np.ndarray     # i8
    pattern: np.ndarray      # i1 (PATTERN_*)
    #: number of truncated (hard-reboot) sessions dropped from the arrays;
    #: they contribute zero monitored hours per the paper's accounting.
    n_truncated: int = 0

    def __post_init__(self) -> None:
        if not (
            self.starts.shape
            == self.ends.shape
            == self.alloc_mb.shape
            == self.pattern.shape
        ):
            raise ValueError("session track arrays must be parallel")
        if np.any(self.ends <= self.starts):
            raise ValueError("sessions must have positive duration")
        if self.starts.size > 1 and np.any(np.diff(self.starts) < 0):
            raise ValueError("sessions must be sorted by start time")

    # -- basic quantities --------------------------------------------------

    @property
    def n_sessions(self) -> int:
        return int(self.starts.shape[0])

    @property
    def durations(self) -> np.ndarray:
        return self.ends - self.starts

    @property
    def iter_hours(self) -> np.ndarray:
        """Iteration period per session (scales with allocated memory)."""
        return BASE_ITER_HOURS * self.alloc_mb / SCAN_TARGET_MB

    @property
    def monitored_hours(self) -> float:
        return float(self.durations.sum())

    @property
    def terabyte_hours(self) -> float:
        return float((self.durations * self.alloc_mb).sum() / (1024.0 * 1024.0))

    # -- queries ------------------------------------------------------------

    def locate(self, t_hours: np.ndarray | float) -> np.ndarray | int:
        """Index of the session covering each time, -1 if uncovered."""
        t = np.asarray(t_hours, dtype=np.float64)
        idx = np.searchsorted(self.starts, t, side="right") - 1
        valid = (idx >= 0) & (t < self.ends[np.clip(idx, 0, None)])
        return np.where(valid, idx, -1)[()]

    def covered(self, t_hours) -> np.ndarray | bool:
        return (np.asarray(self.locate(t_hours), dtype=np.int64) >= 0)[()]

    def clip_to(self, t0: float, t1: float):
        """(starts, ends, original indices) of session pieces within [t0, t1)."""
        s = np.clip(self.starts, t0, t1)
        e = np.clip(self.ends, t0, t1)
        keep = e > s
        return s[keep], e[keep], np.flatnonzero(keep)

    def sample_covered(
        self, rng: np.random.Generator, n: int, t0: float, t1: float
    ) -> np.ndarray:
        """``n`` times uniform over covered time within [t0, t1).

        Returns fewer than ``n`` (possibly zero) samples when the node has
        no coverage in the interval.
        """
        s, e, _ = self.clip_to(t0, t1)
        if s.size == 0:
            return np.empty(0, dtype=np.float64)
        durations = e - s
        cum = np.cumsum(durations)
        total = cum[-1]
        u = rng.random(n) * total
        idx = np.searchsorted(cum, u, side="right")
        offset = u - (cum[idx] - durations[idx])
        return s[idx] + offset

    def detection_time(self, t_event: np.ndarray | float):
        """When the scanner *logs* an event occurring at ``t_event``.

        The mismatch is noticed at the end of the verify pass in flight:
        the event time rounded up to the session's next iteration
        boundary (clamped inside the session).  Uncovered events map to
        NaN.
        """
        t = np.atleast_1d(np.asarray(t_event, dtype=np.float64))
        idx = np.atleast_1d(np.asarray(self.locate(t), dtype=np.int64))
        out = np.full(t.shape, np.nan, dtype=np.float64)
        valid = idx >= 0
        if np.any(valid):
            i = idx[valid]
            start = self.starts[i]
            period = self.iter_hours[i]
            k = np.floor((t[valid] - start) / period) + 1.0
            det = start + k * period
            out[valid] = np.minimum(det, np.nextafter(self.ends[i], 0.0))
        if np.isscalar(t_event) or np.ndim(t_event) == 0:
            return float(out[0])
        return out

    def iterations_in_session(self, index: int) -> int:
        """Number of verify passes completed in session ``index``."""
        return int(self.durations[index] / self.iter_hours[index])

    def to_sessions(self) -> list[ScanSession]:
        """Materialize ScanSession objects (small campaigns / tests)."""
        return [
            ScanSession(
                node=self.node,
                start_hours=float(self.starts[i]),
                end_hours=float(self.ends[i]),
                allocated_mb=int(self.alloc_mb[i]),
            )
            for i in range(self.n_sessions)
        ]

    def daily_terabyte_hours(self, n_days: int) -> np.ndarray:
        """TB-hours of scanning attributed to each study day (Fig 9)."""
        return daily_terabyte_hours([self], n_days)[0]


def daily_terabyte_hours(tracks: Sequence[SessionTrack], n_days: int) -> np.ndarray:
    """TB-hours of scanning per (track, study day), shape ``(len(tracks), n_days)``.

    Sessions are cut at midnight into (session, day) pieces, in track
    then session order.  ``np.add.at`` adds them one at a time in that
    order, which fixes each cell's summation order (and so its rounding).
    """
    out = np.zeros((len(tracks), n_days), dtype=np.float64)
    if not tracks:
        return out
    starts = np.concatenate([t.starts for t in tracks])
    ends = np.concatenate([t.ends for t in tracks])
    alloc_mb = np.concatenate([t.alloc_mb for t in tracks])
    row = np.repeat(np.arange(len(tracks)), [t.n_sessions for t in tracks])
    first = np.floor_divide(starts, 24.0).astype(np.int64)
    # The last day a session covers: the one its end falls in, or the
    # one before when it ends exactly at midnight.
    whole = np.floor_divide(ends, 24.0)
    last = np.where(whole * 24.0 < ends, whole, whole - 1.0).astype(np.int64)
    counts = np.maximum(np.minimum(last, n_days - 1) - first + 1, 0)
    session = np.repeat(np.arange(starts.shape[0]), counts)
    day = first[session] + np.arange(session.shape[0]) - (np.cumsum(counts) - counts)[session]
    day_start = day.astype(np.float64) * 24.0
    day_end = (day + 1).astype(np.float64) * 24.0
    piece_start = np.where(day == first[session], starts[session], day_start)
    piece = np.minimum(ends[session], day_end) - piece_start
    mb = alloc_mb[session].astype(np.float64)
    tbh = piece * mb / (1024.0 * 1024.0)
    counted = day >= 0
    np.add.at(out, (row[session][counted], day[counted]), tbh[counted])
    return out


def build_session_track(
    nodes: Sequence[str],
    starts: np.ndarray,
    ends: np.ndarray,
    bounds,
    rngs: Sequence[np.random.Generator],
    p_full_alloc: float = 0.92,
    p_alloc_fail: float = 0.002,
    leak_mean_mb: float = 400.0,
    p_truncation: float = 0.004,
    p_counting: float | Sequence[float] = 0.05,
) -> list[SessionTrack]:
    """Vectorized daemon pass over a block: idle windows -> one track per node.

    Node ``i``'s idle windows are ``starts[bounds[i]:bounds[i + 1]]``; they
    are merged where they touch, then its stream ``rngs[i]`` draws the
    daemon layer for its merged windows in the order a one-node block
    draws it (allocation ``random``, leak ``exponential``, truncation
    ``random``, pattern ``random``; nothing for a node without windows).
    ``p_counting`` is one probability or one per node.

    Implements the same stochastic layer as
    :class:`repro.scanner.daemon.ScannerDaemon` but in bulk: allocation
    size with the 3 GB / -10 MB backoff against an exponential leak,
    rare total allocation failures, rare hard-reboot truncations (dropped
    and counted), and the scan-pattern choice per session.
    """
    if len(rngs) != len(nodes):
        raise ValueError("build_session_track needs one stream per node")
    starts, ends, bounds = merge_touching(starts, ends, bounds)
    n = starts.shape[0]
    counts = np.diff(bounds)
    u = np.empty(n, dtype=np.float64)
    leak_mb = np.empty(n, dtype=np.float64)
    truncation_draws = np.empty(n, dtype=np.float64)
    pattern_draws = np.empty(n, dtype=np.float64)
    for rng, lo, hi in zip(rngs, bounds[:-1], bounds[1:]):
        if hi > lo:
            rng.random(out=u[lo:hi])
            leak_mb[lo:hi] = rng.exponential(leak_mean_mb, size=hi - lo)
            rng.random(out=truncation_draws[lo:hi])
            rng.random(out=pattern_draws[lo:hi])

    fail = u < p_alloc_fail
    leak = u < p_alloc_fail + (1.0 - p_full_alloc - p_alloc_fail)
    available = np.where(leak, SCAN_TARGET_MB - leak_mb, float(SCAN_TARGET_MB))
    # The backoff loop starts at 3 GB and steps down by 10 MB, so requests
    # live on the grid {3072 - 10k}; it lands on the largest grid value
    # that fits the available memory.
    deficit = np.maximum(0.0, SCAN_TARGET_MB - available)
    steps = np.ceil(deficit / ALLOC_BACKOFF_MB)
    alloc = (SCAN_TARGET_MB - steps * ALLOC_BACKOFF_MB).astype(np.int64)
    truncated = truncation_draws < p_truncation
    keep = (~fail) & (~truncated) & (alloc > 0)
    p_counting = np.repeat(np.broadcast_to(p_counting, counts.shape), counts)
    pattern = np.where(pattern_draws < p_counting, PATTERN_COUNTING, PATTERN_ALTERNATING)

    # Per-node tallies from running sums over the block.
    kept = np.concatenate([[0], np.cumsum(keep)])[bounds]
    n_truncated = np.diff(np.concatenate([[0], np.cumsum(truncated)])[bounds])
    starts, ends, alloc = starts[keep], ends[keep], alloc[keep]
    pattern = pattern[keep].astype(np.int8)
    return [
        SessionTrack(
            node=node,
            starts=starts[lo:hi],
            ends=ends[lo:hi],
            alloc_mb=alloc[lo:hi],
            pattern=pattern[lo:hi],
            n_truncated=int(n),
        )
        for node, lo, hi, n in zip(nodes, kept[:-1], kept[1:], n_truncated)
    ]
