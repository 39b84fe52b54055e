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

import numpy as np

from ..core import timeutils
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


def merge_touching(
    starts: np.ndarray, ends: np.ndarray, tol: float = 1e-9
) -> tuple[np.ndarray, np.ndarray]:
    """Merge windows that overlap or touch within ``tol``, sorted by start.

    This is what lets vacation stretches become multi-day scan sessions
    (full-idle days joining at midnight) — needed both for realism and
    for the long counting-pattern sessions behind several Table I rows.
    """
    starts = np.asarray(starts, dtype=np.float64)
    order = np.argsort(starts, kind="stable")
    starts, ends = starts[order], np.asarray(ends, dtype=np.float64)[order]
    if starts.shape[0] == 0:
        return starts, ends
    # A window opens a new run unless it starts within ``tol`` of the
    # furthest end seen so far.
    reach = np.maximum.accumulate(ends)
    opens = np.ones(starts.shape[0], dtype=bool)
    opens[1:] = starts[1:] > reach[:-1] + tol
    first = np.flatnonzero(opens)
    return starts[first], reach[np.append(first[1:] - 1, starts.shape[0] - 1)]


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
    u0, u1 = merge_touching(cuts[:, 0], cuts[:, 1], tol=0.0)
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


class DailyActivityGenerator:
    """Draws idle windows for one node across the whole study."""

    def __init__(
        self,
        calendar: AcademicCalendar,
        config: ActivityConfig | None = None,
        n_days: int = timeutils.STUDY_DAYS,
    ):
        self.calendar = calendar
        self.config = config or ActivityConfig()
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

    def idle_windows(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, ends)`` of every idle window of one node, by start.

        A day's split and gap proportions are normalised by the sum of
        exactly its ``k`` (and ``k + 1``) draws.  NumPy adds fewer than 8
        elements left to right and 8 or more pairwise, so the sum of a
        zero-padded row can round differently; days are summed in groups
        that share a window count instead.
        """
        cfg = self.config
        n_days, m = self.n_days, cfg.max_windows
        jitter = rng.normal(0.0, cfg.idle_jitter, size=n_days)
        idle_hours = np.clip((self._idle_frac + jitter) * 24.0, 0.0, 24.0)
        n_windows = np.clip(rng.poisson(cfg.mean_windows, size=n_days), 0, m)
        # A day with idle time gets at least one window.
        n_windows = np.where((idle_hours > 0.2) & (n_windows == 0), 1, n_windows)
        # Deep-vacation days may see no jobs at all: one full-day window.
        zero_jobs = rng.random(n_days) < self._p_zero
        # Pre-draw the split proportions for the maximum window count.
        split_draws = rng.random(size=(n_days, m))
        gap_draws = rng.random(size=(n_days, m + 1))
        # Each day's busy/idle layout is rotated by a uniform phase so
        # scanning coverage is flat in hour-of-day; without this, every
        # day starts with a job gap at midnight and coverage (hence
        # observed error counts, Fig 5) would show a spurious diurnal bell.
        phase = rng.random(size=n_days) * 24.0

        k = np.where(zero_jobs | (idle_hours <= 0.0), 0, n_windows)
        w = split_draws + 0.25  # avoid degenerate slivers
        g = gap_draws + 0.10
        w_sum = np.ones(n_days, dtype=np.float64)
        g_sum = np.ones(n_days, dtype=np.float64)
        for count in np.unique(k[k > 0]):
            rows = np.flatnonzero(k == count)
            w_sum[rows] = w[rows, :count].sum(axis=1)
            g_sum[rows] = g[rows, : count + 1].sum(axis=1)
        # Each window's share of the idle budget, each gap's of the busy.
        w = (w / w_sum[:, None]) * idle_hours[:, None]
        g = (g / g_sum[:, None]) * (24.0 - idle_hours)[:, None]
        # Cursor walk gap, window, gap, ...: a running sum, left to right.
        steps = np.empty((n_days, 2 * m), dtype=np.float64)
        steps[:, 0::2] = g[:, :m]
        steps[:, 1::2] = w
        start = np.remainder(np.cumsum(steps, axis=1)[:, 0::2] + phase[:, None], 24.0)
        overflow = start + w
        fits = overflow <= 24.0

        # Window i of a day is piece 0, plus piece 1 when it wraps past
        # midnight.  Flattening in (day, window, piece) order before the
        # stable sort fixes the order of windows with equal starts.
        t0 = self._day_start[:, None]
        starts = np.empty((n_days, m, 2), dtype=np.float64)
        ends = np.empty((n_days, m, 2), dtype=np.float64)
        starts[:, :, 0] = t0 + start
        ends[:, :, 0] = np.where(fits, starts[:, :, 0] + w, t0 + 24.0)
        starts[:, :, 1] = t0
        ends[:, :, 1] = t0 + (overflow - 24.0)
        used = np.arange(m) < k[:, None]
        keep = np.stack([used, used & ~fits], axis=2)
        starts[zero_jobs, 0, 0] = self._day_start[zero_jobs]
        ends[zero_jobs, 0, 0] = self._day_start[zero_jobs] + 24.0
        keep[zero_jobs, 0, 0] = True
        starts, ends = starts[keep], ends[keep]
        order = np.argsort(starts, kind="stable")
        return starts[order], ends[order]

    def expected_idle_hours(self) -> float:
        """Calendar-implied idle hours over the study (no jitter)."""
        return float(np.sum(self._idle_frac * 24.0))
