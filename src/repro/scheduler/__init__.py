"""Job-scheduler substrate: idle-window generation for scanner runs."""

from .batch import BatchScheduler
from .jobs import ActivityConfig, DailyActivityGenerator, subtract_gaps

__all__ = [
    "ActivityConfig",
    "BatchScheduler",
    "DailyActivityGenerator",
    "subtract_gaps",
]
