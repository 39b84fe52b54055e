"""Batch-scheduler tests."""

import numpy as np
import pytest

from repro.cluster.registry import ClusterRegistry
from repro.core.rng import RngFactory
from repro.scheduler.batch import BatchScheduler


@pytest.fixture(scope="module")
def scheduler():
    return BatchScheduler(ClusterRegistry(), rng_factory=RngFactory(5))


def windows(scheduler, node):
    """One node's ``(starts, ends)`` (a one-node block)."""
    starts, ends, bounds = scheduler.node_windows([node])
    assert bounds.tolist() == [0, starts.size]
    return starts, ends


class TestNodeWindows:
    def test_login_nodes_get_nothing(self, scheduler):
        node = scheduler.registry.get("01-01")  # login
        starts, ends = windows(scheduler, node)
        assert starts.size == ends.size == 0

    def test_compute_node_gets_windows(self, scheduler):
        node = scheduler.registry.get("05-05")
        starts, ends = windows(scheduler, node)
        assert len(starts) == len(ends) > 200  # over 425 days

    def test_soc12_windows_respect_power_off(self, scheduler):
        node = scheduler.registry.get("05-12")
        off_start, off_end = node.off_intervals[0]
        starts, ends = windows(scheduler, node)
        assert np.all((ends <= off_start) | (starts >= off_end))

    def test_deterministic(self):
        a = BatchScheduler(ClusterRegistry(), rng_factory=RngFactory(5))
        b = BatchScheduler(ClusterRegistry(), rng_factory=RngFactory(5))
        node = a.registry.get("05-05")
        for x, y in zip(windows(a, node), windows(b, b.registry.get("05-05"))):
            np.testing.assert_array_equal(x, y)

    def test_seed_changes_schedule(self):
        a = BatchScheduler(ClusterRegistry(), rng_factory=RngFactory(5))
        b = BatchScheduler(ClusterRegistry(), rng_factory=RngFactory(6))
        starts_a, _ = windows(a, a.registry.get("05-05"))
        starts_b, _ = windows(b, b.registry.get("05-05"))
        assert not np.array_equal(starts_a, starts_b)

    def test_short_study_windows_end_by_study_end(self):
        registry = ClusterRegistry()
        scheduler = BatchScheduler(registry, rng_factory=RngFactory(1), n_days=10)
        for node in list(registry.scanned_nodes())[:5]:
            starts, ends = windows(scheduler, node)
            assert starts.size > 0
            assert np.all(ends <= 240.0 + 1e-9)

    def test_block_splits_by_node(self, scheduler):
        """A block of nodes gives each node its one-node windows."""
        nodes = [scheduler.registry.get(n) for n in ("05-05", "01-01", "05-12", "33-12")]
        starts, ends, bounds = scheduler.node_windows(nodes)
        assert bounds[0] == 0 and bounds[-1] == starts.size
        for i, node in enumerate(nodes):
            one = windows(scheduler, node)
            np.testing.assert_array_equal(starts[bounds[i] : bounds[i + 1]], one[0])
            np.testing.assert_array_equal(ends[bounds[i] : bounds[i + 1]], one[1])
        assert bounds[2] == bounds[1]  # the login node has none
