"""Exception hierarchy for the :mod:`repro` library.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration object is internally inconsistent or out of range."""


class TopologyError(ReproError):
    """A cluster coordinate (blade/SoC/node id) does not exist."""


class LogFormatError(ReproError):
    """A log line could not be parsed or serialized."""


class ColumnarFormatError(LogFormatError):
    """A columnar log archive (shards or manifest) is malformed."""


class ShardCorruptError(ColumnarFormatError):
    """One shard of a columnar archive is missing, torn, or corrupt.

    Carries the ``node`` whose shard failed so degraded loads can report
    per-node damage the way the paper reports dead blades (923 of 945
    slots scanned).
    """

    def __init__(self, message: str, *, node: str | None = None):
        super().__init__(message)
        self.node = node


class ChecksumMismatchError(ShardCorruptError):
    """A columnar shard's bytes do not match the manifest checksum."""


class UnknownFormatVersionError(ColumnarFormatError):
    """A columnar archive was written by an unknown format version."""


class QueryPlanError(ReproError):
    """A logical query plan is malformed or references unknown columns."""


class ExtractionError(ReproError):
    """The error-extraction pipeline received malformed input."""


class EccError(ReproError):
    """An ECC codec was used incorrectly (wrong word width, bad codeword)."""


class SimulationError(ReproError):
    """The campaign simulator reached an inconsistent state."""


class SourceUnavailableError(ReproError):
    """A shard source is (temporarily) unservable.

    Raised by the resilient read path when its circuit breaker is open
    or a read exhausted its retry budget.  ``retry_after_s`` carries the
    breaker's remaining cool-down so servers can emit ``Retry-After``.
    """

    def __init__(self, message: str, *, retry_after_s: float | None = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ChaosError(ReproError):
    """A deterministic injected fault (see :mod:`repro.chaos`) fired."""


class CheckpointError(ReproError):
    """A campaign's stream directory cannot be resumed by the requested run."""
