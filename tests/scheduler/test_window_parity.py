"""Bit parity of the array window chain against the loops it replaced.

Idle windows, power-off clipping, gap subtraction, merging and the
per-day TB-hour split were per-window Python loops over ``IdleWindow``
objects.  Copies of those loops live here as reference oracles (returning
``(start, end)`` tuples); the array path must match them bit for bit,
compared as int64 views so that no rounding hides behind ``==``.

The array path now runs a block of nodes at a time.  A copy of the
one-node daemon pass is kept as the oracle for session tracks, and the
block tests check that how nodes are split into blocks changes nothing.
"""

from __future__ import annotations

import numpy as np
import pytest

from dataclasses import replace

from repro.cluster.registry import ClusterRegistry
from repro.core import timeutils
from repro.core.rng import RngFactory
from repro.core.units import ALLOC_BACKOFF_MB, SCAN_TARGET_MB
from repro.environment.calendar import AcademicCalendar
from repro.faultinjection.campaign import _CampaignContext, _insert_pinned
from repro.faultinjection.config import quick_campaign_config
from repro.faultinjection.sessions import (
    PATTERN_ALTERNATING,
    PATTERN_COUNTING,
    SessionTrack,
)
from repro.scheduler.batch import BatchScheduler
from repro.scheduler.jobs import (
    ActivityConfig,
    DailyActivityGenerator,
    merge_touching,
    subtract_gaps,
)

N_DAYS = (1, 7, 75, 120, 425)
N_SEEDS = 100
CONFIGS = {
    "default": ActivityConfig(),
    "one-window": ActivityConfig(max_windows=1),
    "seven-windows": ActivityConfig(max_windows=7, mean_windows=5.0),
}
#: A plain node, a SoC-12 slot, a blade-33 node, and node 33-12, whose
#: SoC-12 and blade-33 power-off spans overlap.
NODES = ("05-05", "05-12", "33-03", "33-12")


# -- reference oracles: the loops the array path replaced --------------------


def oracle_idle_windows(gen: DailyActivityGenerator, rng) -> list[tuple[float, float]]:
    cfg = gen.config
    days = np.arange(gen.n_days)
    idle_frac = np.asarray(gen.calendar.idle_fraction(days), dtype=np.float64)
    jitter = rng.normal(0.0, cfg.idle_jitter, size=gen.n_days)
    idle_hours = np.clip((idle_frac + jitter) * 24.0, 0.0, 24.0)
    n_windows = np.clip(rng.poisson(cfg.mean_windows, size=gen.n_days), 0, cfg.max_windows)
    n_windows = np.where((idle_hours > 0.2) & (n_windows == 0), 1, n_windows)
    p_zero = cfg.p_zero_jobs_scale * np.clip(
        (idle_frac - cfg.zero_jobs_threshold) / (1.0 - cfg.zero_jobs_threshold),
        0.0,
        1.0,
    )
    zero_jobs = rng.random(gen.n_days) < p_zero
    split_draws = rng.random(size=(gen.n_days, cfg.max_windows))
    gap_draws = rng.random(size=(gen.n_days, cfg.max_windows + 1))
    phase_draws = rng.random(size=gen.n_days) * 24.0

    windows: list[tuple[float, float]] = []
    for day in range(gen.n_days):
        t0 = timeutils.day_start(day)
        if zero_jobs[day]:
            windows.append((t0, t0 + 24.0))
            continue
        k = int(n_windows[day])
        idle = float(idle_hours[day])
        if k == 0 or idle <= 0.0:
            continue
        busy = 24.0 - idle
        w = split_draws[day, :k] + 0.25
        w = w / w.sum() * idle
        g = gap_draws[day, : k + 1] + 0.10
        g = g / g.sum() * busy
        phase = float(phase_draws[day])
        cursor = 0.0
        for i in range(k):
            cursor += float(g[i])
            start = (cursor + phase) % 24.0
            duration = float(w[i])
            if start + duration <= 24.0:
                windows.append((t0 + start, t0 + start + duration))
            else:
                windows.append((t0 + start, t0 + 24.0))
                windows.append((t0, t0 + (start + duration - 24.0)))
            cursor += duration
    windows.sort(key=lambda w: w[0])
    return windows


def oracle_on_windows(off_intervals, start: float, end: float) -> list[tuple[float, float]]:
    windows: list[tuple[float, float]] = []
    cursor = float(start)
    for off_start, off_end in off_intervals:
        if off_end <= cursor:
            continue
        if off_start >= end:
            break
        if off_start > cursor:
            windows.append((cursor, min(off_start, end)))
        cursor = max(cursor, off_end)
        if cursor >= end:
            break
    if cursor < end:
        windows.append((cursor, float(end)))
    return windows


def oracle_node_windows(raw, off_intervals) -> list[tuple[float, float]]:
    return [
        (on_start, on_end)
        for w0, w1 in raw
        for on_start, on_end in oracle_on_windows(off_intervals, w0, w1)
        if on_end > on_start
    ]


def oracle_subtract_gaps(windows, gaps) -> list[tuple[float, float]]:
    if not gaps:
        return list(windows)
    out: list[tuple[float, float]] = []
    for w0, w1 in windows:
        pieces = [(w0, w1)]
        for g0, g1 in gaps:
            next_pieces = []
            for p0, p1 in pieces:
                if g1 <= p0 or g0 >= p1:
                    next_pieces.append((p0, p1))
                    continue
                if p0 < g0:
                    next_pieces.append((p0, g0))
                if g1 < p1:
                    next_pieces.append((g1, p1))
            pieces = next_pieces
        out.extend((p0, p1) for p0, p1 in pieces if p1 > p0)
    return out


def oracle_merge_touching(windows, tol: float = 1e-9) -> list[tuple[float, float]]:
    if not windows:
        return []
    windows = sorted(windows, key=lambda w: w[0])
    merged = [windows[0]]
    for w0, w1 in windows[1:]:
        last0, last1 = merged[-1]
        if w0 <= last1 + tol:
            merged[-1] = (last0, max(last1, w1))
        else:
            merged.append((w0, w1))
    return merged


def oracle_session_track(node: str, windows, rng, config, p_counting) -> SessionTrack:
    """The one-node daemon pass the block pass replaced."""
    merged = np.asarray(oracle_merge_touching(windows), dtype=np.float64).reshape(-1, 2)
    starts, ends = merged[:, 0].copy(), merged[:, 1].copy()
    n = starts.shape[0]
    if n == 0:
        return SessionTrack(
            node, starts, ends, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8)
        )
    u = rng.random(n)
    fail = u < config.p_alloc_fail
    leak = u < config.p_alloc_fail + (1.0 - config.p_full_alloc - config.p_alloc_fail)
    leak_mb = rng.exponential(config.leak_mean_mb, size=n)
    available = np.where(leak, SCAN_TARGET_MB - leak_mb, float(SCAN_TARGET_MB))
    deficit = np.maximum(0.0, SCAN_TARGET_MB - available)
    steps = np.ceil(deficit / ALLOC_BACKOFF_MB)
    alloc = (SCAN_TARGET_MB - steps * ALLOC_BACKOFF_MB).astype(np.int64)
    truncated = rng.random(n) < config.p_truncation
    keep = (~fail) & (~truncated) & (alloc > 0)
    pattern = np.where(rng.random(n) < p_counting, PATTERN_COUNTING, PATTERN_ALTERNATING)
    return SessionTrack(
        node=node,
        starts=starts[keep],
        ends=ends[keep],
        alloc_mb=alloc[keep],
        pattern=pattern[keep].astype(np.int8),
        n_truncated=int(truncated.sum()),
    )


def oracle_daily_terabyte_hours(track: SessionTrack, n_days: int) -> np.ndarray:
    out = np.zeros(n_days, dtype=np.float64)
    for i in range(track.n_sessions):
        start, end = float(track.starts[i]), float(track.ends[i])
        mb = float(track.alloc_mb[i])
        day = int(start // 24.0)
        while start < end and day < n_days:
            day_end = (day + 1) * 24.0
            piece = min(end, day_end) - start
            if day >= 0:
                out[day] += piece * mb / (1024.0 * 1024.0)
            start = day_end
            day += 1
    return out


# -- helpers -----------------------------------------------------------------


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).reshape(-1).view(np.int64)


def one_node(block) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, ends)`` of a one-node block."""
    starts, ends, bounds = block
    assert bounds.tolist() == [0, starts.shape[0]]
    return starts, ends


def assert_windows_equal(arrays, oracle) -> None:
    starts, ends = arrays
    assert starts.dtype == ends.dtype == np.float64
    expected = np.asarray(oracle, dtype=np.float64).reshape(-1, 2)
    np.testing.assert_array_equal(bits(starts), bits(expected[:, 0]))
    np.testing.assert_array_equal(bits(ends), bits(expected[:, 1]))


def random_gaps(rng, n_days: int) -> list[tuple[float, float]]:
    """Unsorted, sometimes overlapping or touching cut intervals."""
    horizon = n_days * 24.0
    gaps = []
    for _ in range(int(rng.integers(0, 5))):
        start = float(rng.uniform(-12.0, horizon))
        gaps.append((start, start + float(rng.uniform(0.01, 72.0))))
    if gaps and rng.random() < 0.5:
        gaps.append((gaps[0][1], gaps[0][1] + 5.0))  # touches the first
    return gaps


# -- parity ------------------------------------------------------------------


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("n_days", N_DAYS)
def test_window_chain_matches_loops(n_days, config_name):
    """idle windows -> power-off clip -> gaps -> merge, for 100 seeds."""
    activity = CONFIGS[config_name]
    calendar = AcademicCalendar()
    registry = ClusterRegistry()
    gen = DailyActivityGenerator(calendar, activity, n_days=n_days)
    for seed in range(N_SEEDS):
        assert_windows_equal(
            one_node(gen.idle_windows([np.random.default_rng(seed)])),
            oracle_idle_windows(gen, np.random.default_rng(seed)),
        )

        node = registry.get(NODES[seed % len(NODES)])
        factory = RngFactory(seed)
        scheduler = BatchScheduler(
            registry, calendar, activity, rng_factory=factory, n_days=n_days
        )
        clipped = one_node(scheduler.node_windows([node]))
        raw = oracle_idle_windows(gen, factory.fresh(f"scheduler/{node.node_id}"))
        expected = oracle_node_windows(raw, node.off_intervals)
        assert_windows_equal(clipped, expected)

        gap_rng = np.random.default_rng(10_000 + seed)
        for gaps in (random_gaps(gap_rng, n_days), random_gaps(gap_rng, n_days)):
            clipped = subtract_gaps(*clipped, gaps)
            expected = oracle_subtract_gaps(expected, gaps)
            assert_windows_equal(clipped, expected)
        merged = merge_touching(*clipped, [0, clipped[0].shape[0]])
        assert_windows_equal(one_node(merged), oracle_merge_touching(expected))


@pytest.mark.parametrize("n_days", N_DAYS)
def test_daily_terabyte_hours_matches_loop(n_days):
    """Sessions crossing midnights, the study end and day 0."""
    for seed in range(N_SEEDS):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 40))
        starts = np.sort(rng.uniform(-30.0, n_days * 24.0 + 30.0, size=n))
        ends = starts + rng.choice([0.5, 6.0, 30.0, 100.0], size=n) * rng.random(n) + 1e-3
        if n:
            ends[0] = np.ceil(ends[0] / 24.0) * 24.0  # ends exactly at midnight
        track = SessionTrack(
            node="05-05",
            starts=starts,
            ends=ends,
            alloc_mb=rng.integers(1, 3073, size=n).astype(np.int64),
            pattern=np.zeros(n, dtype=np.int8),
        )
        np.testing.assert_array_equal(
            bits(track.daily_terabyte_hours(n_days)),
            bits(oracle_daily_terabyte_hours(track, n_days)),
        )


def test_daily_terabyte_hours_matches_loop_on_campaign(quick_campaign):
    n_days = quick_campaign.config.n_days
    for track in quick_campaign.tracks.values():
        np.testing.assert_array_equal(
            bits(track.daily_terabyte_hours(n_days)),
            bits(oracle_daily_terabyte_hours(track, n_days)),
        )


# -- block passes ------------------------------------------------------------

#: The quick campaign, and the same with up to seven windows a day.
BLOCK_CONFIGS = {
    "quick": quick_campaign_config(),
    "seven-windows": replace(
        quick_campaign_config(), activity=ActivityConfig(max_windows=7, mean_windows=5.0)
    ),
}


def split_windows(ctx, names, size) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Every node's scheduler windows, drawn in blocks of ``size`` nodes."""
    out = {}
    for lo in range(0, len(names), size):
        block = names[lo : lo + size]
        starts, ends, bounds = ctx.scheduler.node_windows([ctx.nodes_by_name[n] for n in block])
        for i, name in enumerate(block):
            out[name] = (starts[bounds[i] : bounds[i + 1]], ends[bounds[i] : bounds[i + 1]])
    return out


def split_tracks(ctx, names, size) -> dict[str, SessionTrack]:
    """Every node's session track, built in blocks of ``size`` nodes."""
    out = {}
    for lo in range(0, len(names), size):
        block = names[lo : lo + size]
        out.update(zip(block, ctx._block_tracks(block)))
    return out


def assert_tracks_equal(got: SessionTrack, want: SessionTrack) -> None:
    assert got.node == want.node
    assert got.n_truncated == want.n_truncated
    for a, b in (
        (got.starts, want.starts),
        (got.ends, want.ends),
        (got.alloc_mb, want.alloc_mb),
        (got.pattern, want.pattern),
    ):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))


@pytest.mark.parametrize("config_name", sorted(BLOCK_CONFIGS))
def test_block_split_changes_nothing(config_name):
    """Blocks of 1, 7 and all nodes (and the campaign's own node-day
    blocks) give every node the windows and track of the one-node loops."""
    config = BLOCK_CONFIGS[config_name]
    ctx = _CampaignContext(config)
    names = list(ctx.nodes_by_name)
    sizes = (1, 7, len(names))
    windows = {size: split_windows(ctx, names, size) for size in sizes}
    tracks = {size: split_tracks(ctx, names, size) for size in sizes}
    tracks["campaign"] = ctx.tracks()
    gen = DailyActivityGenerator(config.calendar, config.activity, n_days=config.n_days)
    n_counting = 0
    for name in names:
        node = ctx.nodes_by_name[name]
        raw = oracle_idle_windows(gen, ctx.rngs.fresh(f"scheduler/{node.node_id}"))
        expected = oracle_node_windows(raw, node.off_intervals)
        for size in sizes:
            assert_windows_equal(windows[size][name], expected)
        pinned = ctx.pinned.get(name, [])
        expected = oracle_subtract_gaps(expected, ctx.gap_hours.get(name, []))
        expected = oracle_subtract_gaps(expected, [p.pinned for p in pinned])
        p_counting = 0.0 if name in ctx.reserved else config.p_counting
        want = oracle_session_track(
            name, expected, ctx.rngs.fresh(f"daemon/{name}"), config, p_counting
        )
        want = _insert_pinned(want, pinned)
        for by_name in tracks.values():
            assert_tracks_equal(by_name[name], want)
        n_counting += int((want.pattern == PATTERN_COUNTING).sum())
    assert n_counting > 0  # the per-node counting probability was exercised
    assert ctx.pinned and any(ctx.gap_hours.values())  # and both extra cuts
