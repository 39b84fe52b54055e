"""Per-node daily job activity -> idle windows for the scanner.

The scanner runs exactly when a node is idle, so scanning coverage is the
complement of job load.  For each node-day the generator draws a total
idle budget around the calendar's idle fraction and splits it into a few
idle windows separated by job bursts.  All random draws for a node's whole
year are taken up front and every day is assembled at once, so windows
travel as sorted float64 ``(starts, ends)`` arrays, keeping the
923-node x 425-day campaign cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core import timeutils
from ..core.errors import ConfigurationError
from ..environment.calendar import AcademicCalendar


@dataclass(frozen=True)
class ActivityConfig:
    """Shape of daily activity cycles."""

    #: Mean number of idle windows per day (when there is idle time).
    mean_windows: float = 2.0
    #: Standard deviation of the daily idle-fraction jitter.
    idle_jitter: float = 0.06
    max_windows: int = 4
    #: Probability scale for a *fully idle* day (no jobs at all) when the
    #: calendar is deep in vacation.  Fully idle days produce windows that
    #: span midnight-to-midnight; consecutive ones merge into the
    #: multi-day scan sessions seen during August/December (and needed by
    #: the long counting-pattern sessions behind several Table I rows).
    p_zero_jobs_scale: float = 0.8
    #: Idle fraction above which zero-job days start appearing.
    zero_jobs_threshold: float = 0.60

    def validate(self) -> None:
        # A day with idle time always gets a window, so it needs a split
        # draw; NumPy's poisson and normal reject negative parameters.
        if self.max_windows < 1:
            raise ConfigurationError("activity max_windows must be >= 1")
        if not self.mean_windows >= 0.0:
            raise ConfigurationError("activity mean_windows must be >= 0")
        if not self.idle_jitter >= 0.0:
            raise ConfigurationError("activity idle_jitter must be >= 0")


def merge_touching(
    starts: np.ndarray, ends: np.ndarray, bounds, tol: float = 1e-9
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge windows that overlap or touch within ``tol``, segment by segment.

    Segment ``i`` is ``starts[bounds[i]:bounds[i + 1]]`` (one node's
    windows).  Each segment is sorted by start (stably) and merged on its
    own; the merged windows come back with their own ``bounds``.  This is
    what lets vacation stretches become multi-day scan sessions (full-idle
    days joining at midnight) — needed both for realism and for the long
    counting-pattern sessions behind several Table I rows.
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    bounds = np.asarray(bounds, dtype=np.int64)
    n = starts.shape[0]
    segment = np.repeat(np.arange(bounds.shape[0] - 1), np.diff(bounds))
    opens = np.ones(n, dtype=bool)
    opens[1:] = segment[1:] != segment[:-1]
    # Sorting segments that are already sorted is the identity; skip it.
    if np.any((starts[1:] < starts[:-1]) & ~opens[1:]):
        order = np.lexsort((starts, segment))
        starts, ends = starts[order], ends[order]
    # A window opens a new run unless it starts within ``tol`` of the
    # furthest end seen so far in its segment.
    reach = np.empty(n, dtype=np.float64)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        np.maximum.accumulate(ends[lo:hi], out=reach[lo:hi])
    opens[1:] |= starts[1:] > reach[:-1] + tol
    first = np.flatnonzero(opens)
    last = np.append(first[1:] - 1, n - 1) if n else first
    merged = np.zeros_like(bounds, dtype=np.int64)
    np.cumsum(np.bincount(segment[first], minlength=bounds.shape[0] - 1), out=merged[1:])
    return starts[first], reach[last], merged


def subtract_gaps(
    starts: np.ndarray, ends: np.ndarray, gaps
) -> tuple[np.ndarray, np.ndarray]:
    """Cut half-open ``gaps`` out of each window ``[starts[i], ends[i])``.

    ``gaps`` is a sequence of ``(start, end)`` pairs in any order, possibly
    overlapping (node 33-12 is powered off both as a SoC-12 slot and with
    blade 33).  Each window keeps its pieces outside the union of the
    gaps, in window order; empty pieces are dropped.  Every piece endpoint
    is a window or gap endpoint, never a computed value.
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    cuts = np.asarray(gaps, dtype=np.float64).reshape(-1, 2)
    # Touching gaps join: they leave no piece between them.
    u0, u1, _ = merge_touching(cuts[:, 0], cuts[:, 1], [0, cuts.shape[0]], tol=0.0)
    if u0.shape[0] == 0:
        keep = ends > starts
        return starts[keep], ends[keep]
    # Runs lo[i]..hi[i]-1 overlap window i, which splits into the pieces
    # [start, u0[lo]), [u1[lo], u0[lo+1]), ..., [u1[hi-1], end).
    lo = np.searchsorted(u1, starts, side="right")
    n_runs = np.maximum(np.searchsorted(u0, ends, side="left") - lo, 0)
    window = np.repeat(np.arange(starts.shape[0]), n_runs + 1)
    piece = np.arange(window.shape[0]) - (np.cumsum(n_runs + 1) - n_runs - 1)[window]
    run = lo[window] + piece
    top = u0.shape[0] - 1
    piece_starts = np.where(piece == 0, starts[window], u1[np.clip(run - 1, 0, top)])
    piece_ends = np.where(piece == n_runs[window], ends[window], u0[np.clip(run, 0, top)])
    keep = piece_ends > piece_starts
    return piece_starts[keep], piece_ends[keep]


def subtract_node_gaps(
    starts: np.ndarray, ends: np.ndarray, bounds, gaps
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`subtract_gaps` over a block: ``gaps[i]`` cuts segment ``i`` only.

    ``gaps`` maps segment indices to their ``(start, end)`` pairs; other
    segments keep their windows.  Empty windows are dropped in every
    segment, as :func:`subtract_gaps` drops them even with no gaps.
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    bounds = np.asarray(bounds, dtype=np.int64)
    counts = np.diff(bounds)
    if gaps:
        cut_starts, cut_ends = [], []
        done = 0
        for i in sorted(gaps):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            piece_starts, piece_ends = subtract_gaps(starts[lo:hi], ends[lo:hi], gaps[i])
            cut_starts += [starts[done:lo], piece_starts]
            cut_ends += [ends[done:lo], piece_ends]
            counts[i] = piece_starts.shape[0]
            done = hi
        starts = np.concatenate(cut_starts + [starts[done:]])
        ends = np.concatenate(cut_ends + [ends[done:]])
    keep = ends > starts
    segment = np.repeat(np.arange(counts.shape[0]), counts)
    kept = np.zeros_like(bounds, dtype=np.int64)
    np.cumsum(np.bincount(segment[keep], minlength=counts.shape[0]), out=kept[1:])
    return starts[keep], ends[keep], kept


class DailyActivityGenerator:
    """Draws idle windows across the whole study for blocks of nodes."""

    def __init__(
        self,
        calendar: AcademicCalendar,
        config: ActivityConfig | None = None,
        n_days: int = timeutils.STUDY_DAYS,
    ):
        self.calendar = calendar
        self.config = config or ActivityConfig()
        self.config.validate()
        self.n_days = int(n_days)
        cfg = self.config
        # Pure functions of the calendar: shared by every node.
        self._day_start = timeutils.day_start(np.arange(self.n_days))
        self._idle_frac = np.asarray(
            calendar.idle_fraction(np.arange(self.n_days)), dtype=np.float64
        )
        self._p_zero = cfg.p_zero_jobs_scale * np.clip(
            (self._idle_frac - cfg.zero_jobs_threshold) / (1.0 - cfg.zero_jobs_threshold),
            0.0,
            1.0,
        )

    def idle_windows(
        self, rngs: Sequence[np.random.Generator]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, ends, bounds)`` of a block of nodes' idle windows.

        ``rngs[i]`` is node ``i``'s stream, and its windows, sorted by
        start, are ``starts[bounds[i]:bounds[i + 1]]``.  Each stream is
        drawn as one node's always was: ``normal``, ``poisson``, then one
        ``random`` call for the zero-job, split, gap and phase draws
        (consecutive ``random`` calls yield the same doubles as one call
        of their total size).  The block's node-days are then built as
        one stack of rows.

        A day's split and gap proportions are normalised by the sum of
        exactly its ``k`` (and ``k + 1``) draws.  NumPy adds fewer than 8
        elements left to right and 8 or more pairwise, so the sum of a
        zero-padded row can round differently; days are summed in groups
        that share a window count instead.
        """
        cfg = self.config
        n_nodes, n_days, m = len(rngs), self.n_days, cfg.max_windows
        jitter = np.empty((n_nodes, n_days), dtype=np.float64)
        n_windows = np.empty((n_nodes, n_days), dtype=np.int64)
        uniform = np.empty((n_nodes, n_days * (2 * m + 3)), dtype=np.float64)
        for i, rng in enumerate(rngs):
            jitter[i] = rng.normal(0.0, cfg.idle_jitter, size=n_days)
            n_windows[i] = rng.poisson(cfg.mean_windows, size=n_days)
            rng.random(out=uniform[i])
        idle_hours = np.clip((self._idle_frac + jitter) * 24.0, 0.0, 24.0).reshape(-1)
        n_windows = np.clip(n_windows.reshape(-1), 0, m)
        # A day with idle time gets at least one window.
        n_windows = np.where((idle_hours > 0.2) & (n_windows == 0), 1, n_windows)
        # Deep-vacation days may see no jobs at all: one full-day window.
        zero_jobs = (uniform[:, :n_days] < self._p_zero).reshape(-1)
        # Split proportions for the maximum window count, then gap ones.
        split_draws = uniform[:, n_days : n_days * (m + 1)].reshape(-1, m)
        gap_draws = uniform[:, n_days * (m + 1) : n_days * (2 * m + 2)].reshape(-1, m + 1)
        # Each day's busy/idle layout is rotated by a uniform phase so
        # scanning coverage is flat in hour-of-day; without this, every
        # day starts with a job gap at midnight and coverage (hence
        # observed error counts, Fig 5) would show a spurious diurnal bell.
        phase = uniform[:, n_days * (2 * m + 2) :].reshape(-1) * 24.0

        rows = n_nodes * n_days
        k = np.where(zero_jobs | (idle_hours <= 0.0), 0, n_windows)
        w = split_draws + 0.25  # avoid degenerate slivers
        g = gap_draws + 0.10
        w_sum = np.ones(rows, dtype=np.float64)
        g_sum = np.ones(rows, dtype=np.float64)
        for count in np.unique(k[k > 0]):
            days = np.flatnonzero(k == count)
            w_sum[days] = w[days, :count].sum(axis=1)
            g_sum[days] = g[days, : count + 1].sum(axis=1)
        # Each window's share of the idle budget, each gap's of the busy.
        w = (w / w_sum[:, None]) * idle_hours[:, None]
        g = (g / g_sum[:, None]) * (24.0 - idle_hours)[:, None]
        # Cursor walk gap, window, gap, ...: a running sum, left to right.
        steps = np.empty((rows, 2 * m), dtype=np.float64)
        steps[:, 0::2] = g[:, :m]
        steps[:, 1::2] = w
        start = np.remainder(np.cumsum(steps, axis=1)[:, 0::2] + phase[:, None], 24.0)
        overflow = start + w
        fits = overflow <= 24.0

        # Window i of a day is piece 0, plus piece 1 when it wraps past
        # midnight: columns 2i and 2i + 1 of the day's row.
        t0 = np.tile(self._day_start, n_nodes)[:, None]
        starts = np.empty((rows, 2 * m), dtype=np.float64)
        ends = np.empty((rows, 2 * m), dtype=np.float64)
        keep = np.empty((rows, 2 * m), dtype=bool)
        starts[:, 0::2] = t0 + start
        ends[:, 0::2] = np.where(fits, starts[:, 0::2] + w, t0 + 24.0)
        starts[:, 1::2] = t0
        ends[:, 1::2] = t0 + (overflow - 24.0)
        keep[:, 0::2] = np.arange(m) < k[:, None]
        keep[:, 1::2] = keep[:, 0::2] & ~fits
        starts[zero_jobs, 0] = t0[zero_jobs, 0]
        ends[zero_jobs, 0] = t0[zero_jobs, 0] + 24.0
        keep[zero_jobs, 0] = True
        # Every piece starts inside its day [t0, t0 + 24], so sorting each
        # day's row stably, unused slots last, then reading the rows in
        # day order equals a stable sort of the node's windows by start.
        order = np.argsort(np.where(keep, starts, np.inf), axis=1, kind="stable")
        n_kept = keep.sum(axis=1)
        picked = (order + 2 * m * np.arange(rows)[:, None])[np.arange(2 * m) < n_kept[:, None]]
        bounds = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(n_kept.reshape(n_nodes, n_days).sum(axis=1), out=bounds[1:])
        return starts.reshape(-1)[picked], ends.reshape(-1)[picked], bounds

    def expected_idle_hours(self) -> float:
        """Calendar-implied idle hours over the study (no jitter)."""
        return float(np.sum(self._idle_frac * 24.0))
