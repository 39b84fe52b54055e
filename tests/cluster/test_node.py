"""Node state/off-interval tests."""

import pytest

from repro.cluster.node import Node, NodeRole
from repro.cluster.registry import ClusterRegistry
from repro.cluster.topology import NodeId
from repro.scheduler import BatchScheduler, subtract_gaps


def make_node(role=NodeRole.COMPUTE):
    return Node(NodeId(5, 5), role=role)


def on_windows(node, start, end):
    """Sub-intervals of ``[start, end)`` during which ``node`` is on."""
    starts, ends = subtract_gaps([start], [end], node.off_intervals)
    return list(zip(starts.tolist(), ends.tolist()))


class TestOffIntervals:
    def test_is_off(self):
        node = make_node()
        node.add_off_interval(10.0, 20.0)
        windows = on_windows(node, 0.0, 30.0)

        def is_on(t):
            return any(s <= t < e for s, e in windows)

        assert not is_on(10.0)
        assert not is_on(19.99)
        assert is_on(20.0)
        assert is_on(5.0)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            make_node().add_off_interval(5.0, 5.0)

    def test_on_windows_simple(self):
        node = make_node()
        node.add_off_interval(10.0, 20.0)
        assert on_windows(node, 0.0, 30.0) == [(0.0, 10.0), (20.0, 30.0)]

    def test_on_windows_nested_queries(self):
        node = make_node()
        node.add_off_interval(10.0, 20.0)
        assert on_windows(node, 12.0, 18.0) == []
        assert on_windows(node, 15.0, 25.0) == [(20.0, 25.0)]

    def test_on_windows_multiple_gaps(self):
        node = make_node()
        node.add_off_interval(10.0, 20.0)
        node.add_off_interval(30.0, 40.0)
        assert on_windows(node, 0.0, 50.0) == [
            (0.0, 10.0),
            (20.0, 30.0),
            (40.0, 50.0),
        ]

    def test_off_hours(self):
        node = make_node()
        node.add_off_interval(10.0, 20.0)
        on = sum(e - s for s, e in on_windows(node, 0.0, 30.0))
        assert 30.0 - on == pytest.approx(10.0)

    def test_login_node_never_on(self):
        registry = ClusterRegistry()
        node = registry.get("01-01")
        assert node.role is NodeRole.LOGIN
        assert not node.scannable
        starts, _, bounds = BatchScheduler(registry, n_days=10).node_windows([node])
        assert starts.size == 0
        assert bounds.tolist() == [0, 0]

    def test_dead_node_not_scannable(self):
        assert not make_node(NodeRole.DEAD).scannable
