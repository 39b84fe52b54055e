"""Determinism contract of the parallel campaign engine.

The tentpole guarantee: for one seed, the serial, thread and process
backends all emit byte-identical log archives and session tracks, the
cache round-trips a result unchanged, and distinct seeds diverge.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.report import StudyAnalysis
from repro.cache import CampaignCache, config_digest
from repro.faultinjection import run_campaign
from repro.faultinjection.campaign import _CampaignContext, _simulate_node
from repro.faultinjection.config import (
    paper_campaign_config,
    quick_campaign_config,
)
from repro.logs.format import format_record


@pytest.fixture(scope="module")
def thread_campaign():
    return run_campaign(quick_campaign_config(), workers=2, backend="thread")


@pytest.fixture(scope="module")
def process_campaign():
    return run_campaign(quick_campaign_config(), workers=2, backend="process")


def _assert_archives_identical(a, b):
    assert a.archive.nodes == b.archive.nodes
    for node in a.archive.nodes:
        lines_a = [format_record(r) for r in a.archive.records(node)]
        lines_b = [format_record(r) for r in b.archive.records(node)]
        assert lines_a == lines_b, f"log divergence on node {node}"


def _assert_tracks_identical(a, b):
    assert a.tracks.keys() == b.tracks.keys()
    for node, track_a in a.tracks.items():
        track_b = b.tracks[node]
        assert np.array_equal(track_a.starts, track_b.starts)
        assert np.array_equal(track_a.ends, track_b.ends)
        assert np.array_equal(track_a.alloc_mb, track_b.alloc_mb)
        assert np.array_equal(track_a.pattern, track_b.pattern)
        assert track_a.n_truncated == track_b.n_truncated


class TestBackendBitIdentity:
    def test_thread_backend_matches_serial(self, quick_campaign, thread_campaign):
        _assert_archives_identical(quick_campaign, thread_campaign)
        _assert_tracks_identical(quick_campaign, thread_campaign)
        assert thread_campaign.n_observations == quick_campaign.n_observations

    def test_process_backend_matches_serial(self, quick_campaign, process_campaign):
        _assert_archives_identical(quick_campaign, process_campaign)
        _assert_tracks_identical(quick_campaign, process_campaign)
        assert process_campaign.n_observations == quick_campaign.n_observations

    def test_metrics_describe_the_run(
        self, quick_campaign, thread_campaign, process_campaign
    ):
        serial = quick_campaign.metrics
        assert serial is not None
        assert serial.backend == "serial"
        assert serial.workers == 1
        assert thread_campaign.metrics.backend == "thread"
        assert process_campaign.metrics.backend == "process"
        assert thread_campaign.metrics.workers == 2
        for metrics in (serial, thread_campaign.metrics):
            assert metrics.n_nodes == len(quick_campaign.tracks)
            assert metrics.n_records == quick_campaign.archive.n_records()
            assert metrics.wall_seconds > 0
            assert metrics.records_per_second > 0
            assert len(metrics.node_seconds) == metrics.n_nodes
            payload = metrics.to_dict()
            assert payload["backend"] == metrics.backend
            assert len(payload["slowest_nodes"]) <= 5


class TestSeedSensitivity:
    def test_node_unit_repeatable_for_same_seed(self):
        config = quick_campaign_config(seed=1234)
        name = sorted(_CampaignContext(config).nodes_by_name)[0]
        results = [
            _simulate_node(_CampaignContext(config), name) for _ in range(2)
        ]
        assert [format_record(r) for r in results[0].columns.to_records()] == [
            format_record(r) for r in results[1].columns.to_records()
        ]
        assert np.array_equal(results[0].track.starts, results[1].track.starts)
        assert len(results[0].columns) == len(results[1].columns)

    def test_different_seeds_diverge(self):
        ctx_a = _CampaignContext(quick_campaign_config(seed=1))
        ctx_b = _CampaignContext(quick_campaign_config(seed=2))
        name = sorted(ctx_a.nodes_by_name)[0]
        unit_a = _simulate_node(ctx_a, name)
        unit_b = _simulate_node(ctx_b, name)
        assert not np.array_equal(unit_a.track.starts, unit_b.track.starts)


class TestCacheRoundTrip:
    def test_digest_ignores_execution_fields_but_not_seed(self):
        base = quick_campaign_config(seed=7)
        tuned = replace(base, workers=4, backend="process")
        assert config_digest(base) == config_digest(tuned)
        assert config_digest(base) != config_digest(quick_campaign_config(seed=8))
        assert config_digest(base) != config_digest(paper_campaign_config(seed=7))

    def test_round_trip_preserves_analysis(
        self, quick_campaign, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cache = CampaignCache(root=tmp_path / "cache")
        key = config_digest(quick_campaign.config)
        assert cache.load(key) is None  # cold cache
        assert cache.store(key, quick_campaign)
        loaded = cache.load(key)
        assert loaded is not None
        assert cache.stats.hits == 1 and cache.stats.misses == 1

        original = StudyAnalysis(quick_campaign).campaign.raw_frame()
        restored = StudyAnalysis(loaded).campaign.raw_frame()
        assert len(restored) == len(original)
        assert np.array_equal(restored.time_hours, original.time_hours)
        assert np.array_equal(restored.expected, original.expected)
        assert np.array_equal(restored.actual, original.actual)
        assert np.array_equal(
            restored.virtual_address, original.virtual_address
        )
        assert restored.node_names == original.node_names

    def test_cache_entry_is_columnar_and_bit_identical(
        self, quick_campaign, tmp_path, monkeypatch
    ):
        """The disk cache stores the archive columnar (arrays, not records)
        and reloads must reproduce the raw frame bit-for-bit."""
        from repro.experiments.runner import _cacheable
        from repro.logs.columnar import ColumnarArchive

        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cache = CampaignCache(root=tmp_path / "cache")
        key = config_digest(quick_campaign.config)
        assert cache.store(key, _cacheable(quick_campaign))
        loaded = cache.load(key)
        assert isinstance(loaded.archive, ColumnarArchive)
        assert loaded.n_raw_error_lines() == quick_campaign.n_raw_error_lines()

        original = quick_campaign.raw_frame()
        restored = loaded.raw_frame()
        assert restored.node_names == original.node_names
        assert np.array_equal(restored.time_hours, original.time_hours)
        assert np.array_equal(restored.node_code, original.node_code)
        assert np.array_equal(restored.expected, original.expected)
        assert np.array_equal(restored.actual, original.actual)
        assert np.array_equal(restored.virtual_address, original.virtual_address)
        assert np.array_equal(restored.physical_page, original.physical_page)
        assert np.array_equal(restored.repeat_count, original.repeat_count)
        assert np.array_equal(
            restored.temperature_c, original.temperature_c, equal_nan=True
        )

    def test_disabled_cache_never_stores(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cache = CampaignCache(root=tmp_path / "cache")
        assert not cache.enabled
        assert not cache.store("abc", {"x": 1})
        assert cache.load("abc") is None
        assert cache.entries() == []
