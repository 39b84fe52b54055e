"""Session-track tests: merging, gaps, sampling, detection timing."""

import numpy as np
import pytest

from repro.faultinjection.sessions import (
    BASE_ITER_HOURS,
    PATTERN_ALTERNATING,
    SessionTrack,
    build_session_track,
)
from repro.scheduler.jobs import merge_touching, subtract_gaps, subtract_node_gaps


def track(starts, ends, alloc=3072):
    n = len(starts)
    return SessionTrack(
        node="05-05",
        starts=np.array(starts, dtype=np.float64),
        ends=np.array(ends, dtype=np.float64),
        alloc_mb=np.full(n, alloc, dtype=np.int64),
        pattern=np.zeros(n, dtype=np.int8),
    )


def pairs(windows):
    starts, ends = windows
    return list(zip(starts.tolist(), ends.tolist()))


def spaced(n):
    """``n`` five-hour windows, ten hours apart."""
    starts = np.arange(n, dtype=np.float64) * 10.0
    return starts, starts + 5.0


def merge(starts, ends):
    """Merge one node's windows (a one-segment block)."""
    return merge_touching(starts, ends, [0, len(starts)])[:2]


def build(starts, ends, rng, **kwargs):
    """One node's track (a one-node block)."""
    (one,) = build_session_track(["05-05"], starts, ends, [0, len(starts)], [rng], **kwargs)
    return one


class TestMergeTouching:
    def test_merges_midnight_joins(self):
        merged = merge(np.array([0.0, 24.0]), np.array([24.0, 48.0]))
        assert pairs(merged) == [(0.0, 48.0)]

    def test_keeps_gaps(self):
        starts, _ = merge(np.array([0.0, 6.0]), np.array([5.0, 10.0]))
        assert len(starts) == 2

    def test_handles_overlap(self):
        merged = merge(np.array([5.0, 0.0]), np.array([12.0, 10.0]))
        assert pairs(merged) == [(0.0, 12.0)]

    def test_empty(self):
        assert pairs(merge(np.empty(0), np.empty(0))) == []

    def test_segments_merge_on_their_own(self):
        """Windows of different nodes never join, even where they touch."""
        starts = np.array([0.0, 24.0, 24.0, 5.0, 0.0, 1.0])
        ends = np.array([24.0, 48.0, 30.0, 12.0, 10.0, 2.0])
        s, e, bounds = merge_touching(starts, ends, [0, 2, 3, 3, 6])
        assert bounds.tolist() == [0, 1, 2, 2, 3]
        assert pairs((s, e)) == [(0.0, 48.0), (24.0, 30.0), (0.0, 12.0)]


class TestSubtractGaps:
    def test_punches_hole(self):
        out = subtract_gaps(np.array([0.0]), np.array([10.0]), [(3.0, 5.0)])
        assert pairs(out) == [(0.0, 3.0), (5.0, 10.0)]

    def test_swallows_window(self):
        out = subtract_gaps(np.array([4.0]), np.array([6.0]), [(0.0, 10.0)])
        assert pairs(out) == []

    def test_no_gaps(self):
        assert pairs(subtract_gaps(np.array([0.0]), np.array([1.0]), [])) == [(0.0, 1.0)]

    def test_node_gaps_cut_their_segment_only(self):
        """Empty windows drop everywhere, cut or not, as with no gaps."""
        starts = np.array([0.0, 5.0, 7.0, 2.0])
        ends = np.array([1.0, 5.0, 9.0, 4.0])
        s, e, bounds = subtract_node_gaps(starts, ends, [0, 2, 3, 3, 4], {1: [(7.5, 8.0)]})
        assert bounds.tolist() == [0, 1, 3, 3, 4]
        assert pairs((s, e)) == [(0.0, 1.0), (7.0, 7.5), (8.0, 9.0), (2.0, 4.0)]

    def test_node_gaps_match_per_segment_cuts(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            counts = rng.integers(0, 6, size=5)
            bounds = np.concatenate([[0], np.cumsum(counts)])
            starts = np.round(rng.uniform(0.0, 100.0, size=bounds[-1]))
            ends = starts + rng.choice([0.0, 1.0, 7.5], size=bounds[-1])
            gaps = {
                int(i): [(float(g), float(g) + 4.0) for g in rng.uniform(0.0, 100.0, 3)]
                for i in np.flatnonzero(rng.random(5) < 0.5)
            }
            s, e, got = subtract_node_gaps(starts, ends, bounds, gaps)
            for i in range(5):
                lo, hi = bounds[i], bounds[i + 1]
                want = subtract_gaps(starts[lo:hi], ends[lo:hi], gaps.get(i, []))
                assert pairs((s[got[i] : got[i + 1]], e[got[i] : got[i + 1]])) == pairs(want)

    def test_unsorted_overlapping_and_touching_gaps(self):
        gaps = [(30.0, 40.0), (12.0, 18.0), (10.0, 15.0), (40.0, 45.0)]
        out = subtract_gaps(np.array([0.0, 42.0]), np.array([50.0, 60.0]), gaps)
        assert pairs(out) == [(0.0, 10.0), (18.0, 30.0), (45.0, 50.0), (45.0, 60.0)]


class TestTrackQueries:
    def test_locate(self):
        t = track([0.0, 10.0], [5.0, 20.0])
        assert t.locate(2.0) == 0
        assert t.locate(5.0) == -1
        assert t.locate(15.0) == 1
        assert t.locate(25.0) == -1

    def test_locate_vectorized(self):
        t = track([0.0, 10.0], [5.0, 20.0])
        out = t.locate(np.array([2.0, 7.0, 11.0]))
        assert out.tolist() == [0, -1, 1]

    def test_monitored_and_tbh(self):
        t = track([0.0], [1024.0 / 3.0], alloc=3072)
        assert t.monitored_hours == pytest.approx(1024.0 / 3.0)
        assert t.terabyte_hours == pytest.approx(1.0)

    def test_sample_covered_within_sessions(self):
        t = track([0.0, 100.0], [10.0, 110.0])
        rng = np.random.default_rng(0)
        samples = t.sample_covered(rng, 500, -np.inf, np.inf)
        assert samples.shape == (500,)
        assert (np.asarray(t.locate(samples)) >= 0).all()

    def test_sample_covered_respects_interval(self):
        t = track([0.0, 100.0], [10.0, 110.0])
        rng = np.random.default_rng(1)
        samples = t.sample_covered(rng, 200, 100.0, 105.0)
        assert (samples >= 100.0).all() and (samples < 105.0).all()

    def test_sample_covered_empty(self):
        t = track([0.0], [10.0])
        rng = np.random.default_rng(2)
        assert t.sample_covered(rng, 5, 20.0, 30.0).size == 0

    def test_detection_time_rounds_up(self):
        t = track([0.0], [10.0])
        period = float(t.iter_hours[0])
        det = t.detection_time(period * 2.5)
        assert det == pytest.approx(period * 3.0)

    def test_detection_time_uncovered_nan(self):
        t = track([0.0], [10.0])
        assert np.isnan(t.detection_time(50.0))

    def test_detection_clamped_inside_session(self):
        t = track([0.0], [10.0])
        det = t.detection_time(10.0 - 1e-9)
        assert det < 10.0

    def test_iterations_in_session(self):
        t = track([0.0], [10.0])
        assert t.iterations_in_session(0) == int(10.0 / BASE_ITER_HOURS)

    def test_daily_tbh_split(self):
        t = track([12.0], [36.0], alloc=3072)  # spans days 0 and 1
        daily = t.daily_terabyte_hours(3)
        assert daily[0] == pytest.approx(12.0 * 3.0 / 1024.0)
        assert daily[1] == pytest.approx(12.0 * 3.0 / 1024.0)
        assert daily[2] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            track([0.0], [0.0])


class TestBuildTrack:
    def test_build_basic(self):
        rng = np.random.default_rng(0)
        t = build(*spaced(200), rng, p_truncation=0.0)
        assert t.n_sessions == 200
        assert (t.alloc_mb <= 3072).all()
        assert (t.alloc_mb > 0).all()

    def test_allocation_backs_off_on_the_request_grid(self):
        """Paper Sec II-B: ask for 3 GB, then 10 MB less until it fits."""
        t = build(*spaced(2000), np.random.default_rng(3), p_truncation=0.0)
        assert (t.alloc_mb % 10 == 2).all()  # 3072 - k*10
        assert t.alloc_mb.max() == 3072
        assert (t.alloc_mb < 3072).any()
        assert 0.88 < float((t.alloc_mb == 3072).mean()) < 0.96

    def test_allocation_failure_drops_the_session(self):
        t = build(*spaced(50), np.random.default_rng(4), p_alloc_fail=1.0)
        assert t.n_sessions == 0

    def test_truncation_drops_sessions(self):
        rng = np.random.default_rng(1)
        t = build(*spaced(500), rng, p_truncation=0.5)
        assert t.n_truncated > 100
        assert t.n_sessions + t.n_truncated <= 500

    def test_counting_fraction(self):
        rng = np.random.default_rng(2)
        t = build(*spaced(1000), rng, p_truncation=0.0, p_counting=0.3)
        frac = float((t.pattern != PATTERN_ALTERNATING).mean())
        assert 0.2 < frac < 0.4

    def test_empty_windows(self):
        t = build(*spaced(0), np.random.default_rng(0))
        assert t.n_sessions == 0
        assert t.monitored_hours == 0.0

    def test_one_stream_per_node(self):
        with pytest.raises(ValueError):
            build_session_track(["05-05", "05-06"], *spaced(2), [0, 1, 2], [None])
