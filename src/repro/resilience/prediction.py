"""Online failure prediction from spatio-temporal error correlation.

Sec III-I: "When the system starts to experience several failures in a
short period of time, it is relatively simple to foresee future failures
using the spatio-temporal analysis."  This module makes that claim
operational: an online predictor watches the error stream and raises a
per-node alarm when a node logs more than ``trigger_count`` errors within
``window_hours``; the alarm forecasts further errors on that node within
``horizon_hours``.  Evaluation replays the study's stream and scores
precision (alarms followed by a real error storm), the fraction of all
errors that fell inside an active alarm (the errors a proactive system
could have mitigated), and the lead time from alarm to storm peak.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Hashable
from dataclasses import dataclass, field

import numpy as np

from ..logs.frame import ErrorFrame


@dataclass(frozen=True)
class PredictorConfig:
    """Alarm policy parameters."""

    trigger_count: int = 3        # paper's "abnormal" threshold
    window_hours: float = 24.0
    horizon_hours: float = 24.0
    #: An alarm counts as *true* if at least this many further errors
    #: arrive on the node within the horizon.
    storm_size: int = 10

    def __post_init__(self) -> None:
        if self.trigger_count < 1 or self.storm_size < 1:
            raise ValueError("counts must be >= 1")
        if self.window_hours <= 0 or self.horizon_hours <= 0:
            raise ValueError("windows must be positive")


@dataclass(frozen=True)
class Alarm:
    """One raised alarm and its outcome."""

    node: str
    time_hours: float
    errors_in_horizon: int

    def is_true(self, storm_size: int) -> bool:
        return self.errors_in_horizon >= storm_size


@dataclass
class PredictionReport:
    """Replay evaluation of the predictor."""

    config: PredictorConfig
    alarms: list[Alarm] = field(default_factory=list)
    n_errors_total: int = 0
    n_errors_in_alarms: int = 0

    @property
    def n_alarms(self) -> int:
        return len(self.alarms)

    @property
    def n_true_alarms(self) -> int:
        return sum(1 for a in self.alarms if a.is_true(self.config.storm_size))

    @property
    def precision(self) -> float:
        return self.n_true_alarms / self.n_alarms if self.alarms else 0.0

    @property
    def coverage(self) -> float:
        """Fraction of all errors that struck during an active alarm —
        errors a proactive mitigation (quarantine, extra checkpoints)
        would have been armed for."""
        if not self.n_errors_total:
            return 0.0
        return self.n_errors_in_alarms / self.n_errors_total


class AlarmRule:
    """The alarm state machine, fed one error at a time in time order.

    Per node it keeps the error times of the last ``window_hours`` in a
    deque; the error that takes the count past ``trigger_count`` raises
    an alarm, which stays active for ``horizon_hours``.  Errors inside an
    active alarm never enter the window, and raising an alarm empties it.
    Batch replay (:class:`SpatioTemporalPredictor`) and the live monitor
    (:class:`repro.monitoring.OnlineMonitor`) both drive this one rule.
    """

    def __init__(self, config: PredictorConfig):
        self.config = config
        self._recent: dict[Hashable, deque[float]] = defaultdict(deque)
        self._alarmed_until: dict[Hashable, float] = {}

    def alarmed(self, node: Hashable, t: float) -> bool:
        """Whether ``node`` has an alarm active at time ``t``."""
        return t < self._alarmed_until.get(node, -np.inf)

    def record(self, node: Hashable, t: float) -> bool:
        """Count an error that struck outside an active alarm; return
        whether it raises a new one."""
        window = self._recent[node]
        window.append(t)
        cutoff = t - self.config.window_hours
        while window[0] < cutoff:
            window.popleft()
        if len(window) <= self.config.trigger_count:
            return False
        self._alarmed_until[node] = t + self.config.horizon_hours
        window.clear()
        return True


class SpatioTemporalPredictor:
    """Replay an error stream through the alarm policy."""

    def __init__(self, config: PredictorConfig | None = None):
        self.config = config or PredictorConfig()

    def run(self, frame: ErrorFrame) -> PredictionReport:
        order = np.argsort(frame.time_hours, kind="stable")
        times = frame.time_hours[order].tolist()
        nodes = frame.node_code[order].tolist()
        rule = AlarmRule(self.config)
        alarm_counts: list[int] = []
        alarm_meta: list[tuple[int, float]] = []
        open_alarm: dict[int, int] = {}
        report = PredictionReport(config=self.config, n_errors_total=len(times))

        for t, node in zip(times, nodes):
            if rule.alarmed(node, t):
                report.n_errors_in_alarms += 1
                alarm_counts[open_alarm[node]] += 1
            elif rule.record(node, t):
                open_alarm[node] = len(alarm_counts)
                alarm_counts.append(0)
                alarm_meta.append((node, t))

        for (node, t), count in zip(alarm_meta, alarm_counts):
            report.alarms.append(
                Alarm(
                    node=frame.node_names[node],
                    time_hours=t,
                    errors_in_horizon=count,
                )
            )
        return report


def sweep_trigger(
    frame: ErrorFrame, triggers: list[int], **kwargs
) -> list[PredictionReport]:
    """Precision/coverage trade-off across alarm eagerness settings."""
    reports = []
    for trigger in triggers:
        config = PredictorConfig(trigger_count=trigger, **kwargs)
        reports.append(SpatioTemporalPredictor(config).run(frame))
    return reports
