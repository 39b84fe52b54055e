"""Batch-scheduler tests."""

import numpy as np
import pytest

from repro.cluster.registry import ClusterRegistry
from repro.core.rng import RngFactory
from repro.scheduler.batch import BatchScheduler


@pytest.fixture(scope="module")
def scheduler():
    return BatchScheduler(ClusterRegistry(), rng_factory=RngFactory(5))


class TestNodeWindows:
    def test_login_nodes_get_nothing(self, scheduler):
        node = scheduler.registry.get("01-01")  # login
        starts, ends = scheduler.node_windows(node)
        assert starts.size == ends.size == 0

    def test_compute_node_gets_windows(self, scheduler):
        node = scheduler.registry.get("05-05")
        starts, ends = scheduler.node_windows(node)
        assert len(starts) == len(ends) > 200  # over 425 days

    def test_soc12_windows_respect_power_off(self, scheduler):
        node = scheduler.registry.get("05-12")
        off_start, off_end = node.off_intervals[0]
        starts, ends = scheduler.node_windows(node)
        assert np.all((ends <= off_start) | (starts >= off_end))

    def test_deterministic(self):
        a = BatchScheduler(ClusterRegistry(), rng_factory=RngFactory(5))
        b = BatchScheduler(ClusterRegistry(), rng_factory=RngFactory(5))
        node = a.registry.get("05-05")
        for x, y in zip(a.node_windows(node), b.node_windows(b.registry.get("05-05"))):
            np.testing.assert_array_equal(x, y)

    def test_seed_changes_schedule(self):
        a = BatchScheduler(ClusterRegistry(), rng_factory=RngFactory(5))
        b = BatchScheduler(ClusterRegistry(), rng_factory=RngFactory(6))
        starts_a, _ = a.node_windows(a.registry.get("05-05"))
        starts_b, _ = b.node_windows(b.registry.get("05-05"))
        assert not np.array_equal(starts_a, starts_b)

    def test_short_study_windows_end_by_study_end(self):
        registry = ClusterRegistry()
        scheduler = BatchScheduler(registry, rng_factory=RngFactory(1), n_days=10)
        for node in list(registry.scanned_nodes())[:5]:
            starts, ends = scheduler.node_windows(node)
            assert starts.size > 0
            assert np.all(ends <= 240.0 + 1e-9)
