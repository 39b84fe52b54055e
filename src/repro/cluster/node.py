"""Per-node role and availability state.

Roles are static properties decided at commissioning time (login node,
dead hardware); states evolve over the study (idle/busy/powered off) and
drive when the memory scanner may run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .topology import NodeId


class NodeRole(str, Enum):
    """Commissioned role of a node (fixed for the whole study)."""

    COMPUTE = "compute"  # takes part in the scanning study
    LOGIN = "login"      # one of the 9 login nodes, never scanned
    DEAD = "dead"        # permanent hardware failure, never scanned


class NodeState(str, Enum):
    """Operational state at a point in time."""

    IDLE = "idle"  # no job running: scanner may run
    BUSY = "busy"  # job running: scanner stopped by prologue
    OFF = "off"    # powered down (overheating SoC-12 slots, blade 33)


@dataclass
class Node:
    """A single SoC node with its role and time-varying state."""

    node_id: NodeId
    role: NodeRole = NodeRole.COMPUTE
    state: NodeState = NodeState.IDLE
    #: Intervals [start, end) in study-hours during which the node is
    #: administratively powered off (sorted; they may overlap).
    off_intervals: list[tuple[float, float]] = field(default_factory=list)

    @property
    def scannable(self) -> bool:
        """Whether this node participates in the reliability study at all."""
        return self.role is NodeRole.COMPUTE

    def add_off_interval(self, start: float, end: float) -> None:
        if end <= start:
            raise ValueError("off interval must have positive length")
        self.off_intervals.append((float(start), float(end)))
        self.off_intervals.sort()
