"""The batch scheduler orchestrating scanning across the machine.

Combines the cluster registry (which nodes exist, when they are powered
off) with per-node daily activity to produce, for every scanned node, the
idle windows during which the epilogue script launches the memory scanner.
This is the layer that creates the coverage structure of Figs 1, 2 and 9:
login nodes get nothing, SoC-12 slots lose their powered-off months,
blade 33 loses its downtime, everyone else accumulates ~5000 hours.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cluster.node import Node
from ..cluster.registry import ClusterRegistry
from ..core.rng import RngFactory
from ..environment.calendar import AcademicCalendar
from .jobs import ActivityConfig, DailyActivityGenerator, subtract_node_gaps


class BatchScheduler:
    """Produces every scheduled scan window of the study."""

    def __init__(
        self,
        registry: ClusterRegistry,
        calendar: AcademicCalendar | None = None,
        activity: ActivityConfig | None = None,
        rng_factory: RngFactory | None = None,
        n_days: int | None = None,
    ):
        self.registry = registry
        self.calendar = calendar or AcademicCalendar()
        self.rng_factory = rng_factory or RngFactory()
        if n_days is None:
            self._generator = DailyActivityGenerator(self.calendar, activity)
        else:
            self._generator = DailyActivityGenerator(
                self.calendar, activity, n_days=n_days
            )

    def node_windows(
        self, nodes: Sequence[Node]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, ends, bounds)`` of a block of nodes' powered-on idle windows.

        Node ``i``'s windows are ``starts[bounds[i]:bounds[i + 1]]``.  Nodes
        that are not scannable get none and draw nothing; the others draw
        their ``scheduler/<node>`` stream exactly as a one-node block would.
        """
        scanned = [i for i, node in enumerate(nodes) if node.scannable]
        starts, ends, scanned_bounds = self._generator.idle_windows(
            [self.rng_factory.fresh(f"scheduler/{nodes[i].node_id}") for i in scanned]
        )
        counts = np.zeros(len(nodes), dtype=np.int64)
        counts[scanned] = np.diff(scanned_bounds)
        bounds = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        off = {i: node.off_intervals for i, node in enumerate(nodes) if node.off_intervals}
        return subtract_node_gaps(starts, ends, bounds, off)
