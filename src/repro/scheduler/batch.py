"""The batch scheduler orchestrating scanning across the machine.

Combines the cluster registry (which nodes exist, when they are powered
off) with per-node daily activity to produce, for every scanned node, the
idle windows during which the epilogue script launches the memory scanner.
This is the layer that creates the coverage structure of Figs 1, 2 and 9:
login nodes get nothing, SoC-12 slots lose their powered-off months,
blade 33 loses its downtime, everyone else accumulates ~5000 hours.
"""

from __future__ import annotations

import numpy as np

from ..cluster.node import Node
from ..cluster.registry import ClusterRegistry
from ..core.rng import RngFactory
from ..environment.calendar import AcademicCalendar
from .jobs import ActivityConfig, DailyActivityGenerator, subtract_gaps


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

    def node_windows(self, node: Node) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, ends)`` of one node's idle windows while powered on."""
        if not node.scannable:
            empty = np.empty(0, dtype=np.float64)
            return empty, empty.copy()
        rng = self.rng_factory.fresh(f"scheduler/{node.node_id}")
        starts, ends = self._generator.idle_windows(rng)
        return subtract_gaps(starts, ends, node.off_intervals)
