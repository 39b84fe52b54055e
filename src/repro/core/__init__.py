"""Core primitives shared by every subsystem.

Submodules
----------
``records``
    Log entry dataclasses emitted by the memory scanner.
``events``
    Analysis-level objects (independent errors, simultaneity groups).
``bitops``
    Vectorized 32-bit word bit manipulation (popcount, flip directions...).
``timeutils``
    Study-calendar arithmetic (hours since epoch <-> dates/days/hours).
``units``
    Memory-size conversions (MB, TB-hours).
``rng``
    Deterministic named random streams.
``errors``
    Library exception hierarchy.
"""

from .errors import (
    ChaosError,
    CheckpointError,
    ConfigurationError,
    EccError,
    ExtractionError,
    LogFormatError,
    ReproError,
    ShardCorruptError,
    SimulationError,
    TopologyError,
)
from .events import MemoryError_, SimultaneityGroup
from .records import (
    AllocFailRecord,
    EndRecord,
    ErrorRecord,
    LogRecord,
    RecordKind,
    ScanCoverage,
    ScanSession,
    StartRecord,
)
from .timeutils import STUDY_DAYS, STUDY_EPOCH, STUDY_HOURS, StudyPeriod

__all__ = [
    "AllocFailRecord",
    "ChaosError",
    "CheckpointError",
    "ConfigurationError",
    "EccError",
    "EndRecord",
    "ErrorRecord",
    "ExtractionError",
    "LogFormatError",
    "LogRecord",
    "MemoryError_",
    "RecordKind",
    "ReproError",
    "ScanCoverage",
    "ScanSession",
    "ShardCorruptError",
    "SimulationError",
    "SimultaneityGroup",
    "StartRecord",
    "STUDY_DAYS",
    "STUDY_EPOCH",
    "STUDY_HOURS",
    "StudyPeriod",
    "TopologyError",
]
