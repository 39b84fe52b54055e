"""Campaign-level invariants on the quick configuration."""

import numpy as np
import pytest

from repro.faultinjection import (
    quick_campaign_config,
    run_campaign,
)
from repro.faultinjection.catalogue import TABLE_I


class TestQuickCampaign:
    def test_all_table1_faults_present(self, quick_campaign):
        frame = quick_campaign.raw_frame()
        counts = {}
        for exp, act in zip(frame.expected, frame.actual):
            key = (int(exp), int(act))
            counts[key] = counts.get(key, 0) + 1
        for p in TABLE_I:
            key = (p.expected, p.corrupted)
            assert counts.get(key, 0) >= p.occurrences, p

    def test_every_observation_within_coverage(self, quick_campaign):
        """No error can be logged while its node is not scanning."""
        frame = quick_campaign.raw_frame()
        for name, track in quick_campaign.tracks.items():
            if name not in frame.node_names:
                continue
            code = frame.node_names.index(name)
            times = frame.time_hours[frame.node_code == code]
            covered = np.asarray(track.covered(times))
            assert covered.all(), f"{name}: errors outside sessions"

    def test_raw_lines_at_least_records(self, quick_campaign):
        assert quick_campaign.n_raw_error_lines() >= len(
            quick_campaign.raw_frame()
        )

    def test_stuck_node_dominates_lines(self, quick_campaign):
        frame = quick_campaign.raw_frame()
        stuck = quick_campaign.config.stuck.node
        code = frame.node_names.index(stuck)
        share = frame.repeat_count[frame.node_code == code].sum() / frame.repeat_count.sum()
        assert share > 0.98

    def test_monitoring_gap_respected(self, quick_campaign):
        cfg = quick_campaign.config.degrading
        track = quick_campaign.tracks[cfg.node]
        for g0, g1 in cfg.monitoring_gaps:
            s, e, _ = track.clip_to(g0 * 24.0, g1 * 24.0)
            assert s.size == 0, "sessions inside a monitoring gap"

    def test_deterministic(self):
        a = run_campaign(quick_campaign_config(seed=99))
        b = run_campaign(quick_campaign_config(seed=99))
        fa, fb = a.raw_frame(), b.raw_frame()
        assert len(fa) == len(fb)
        assert np.array_equal(fa.time_hours, fb.time_hours)
        assert np.array_equal(fa.expected, fb.expected)

    def test_seed_sensitivity(self):
        a = run_campaign(quick_campaign_config(seed=99))
        b = run_campaign(quick_campaign_config(seed=100))
        assert len(a.raw_frame()) != len(b.raw_frame()) or not np.array_equal(
            a.raw_frame().time_hours, b.raw_frame().time_hours
        )

    def test_temperature_telemetry_window(self, quick_campaign):
        """No temperature readings before April 2015 (study day 59)."""
        from repro.core import timeutils

        frame = quick_campaign.raw_frame()
        before = frame.time_hours < timeutils.TEMPERATURE_LOGGING_START
        assert np.isnan(frame.temperature_c[before]).all()
        after = ~before
        if after.any():
            assert not np.isnan(frame.temperature_c[after]).all()


class TestCoverageAccounting:
    def test_tbh_consistency(self, quick_campaign):
        """Per-day TBh sums to the per-node totals."""
        daily = quick_campaign.daily_terabyte_hours()
        assert daily.sum() == pytest.approx(
            quick_campaign.total_terabyte_hours(), rel=1e-6
        )

    def test_no_login_or_dead_nodes_tracked(self, quick_campaign):
        from repro.cluster import NodeRole

        tracked = set(quick_campaign.tracks)
        for node in quick_campaign.registry:
            if node.role is not NodeRole.COMPUTE:
                assert str(node.node_id) not in tracked
