"""Replay the study's observed errors through protection schemes.

The prototype had *no* ECC, which is precisely why the study could see raw
errors.  This module answers the paper's recurring what-if question: had
these DIMMs been protected, which corruptions would have been corrected,
which would have crashed the node, and which would have been silent data
corruption?  (Sec III-C counts 76 double-bit "would be detected" cases and
9 ">2 bits, could pass undetected"; Sec III-D studies the >3-bit ones.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..core.events import MemoryError_
from .chipkill import CHIPKILL_32
from .hamming import Outcome


@dataclass(frozen=True)
class ProtectionOutcome:
    """Fate of one observed error under one protection scheme."""

    error: MemoryError_
    outcome: Outcome


@dataclass
class ProtectionSummary:
    """Population-level counts for one scheme over an error stream."""

    scheme: str
    errors: Sequence[MemoryError_] = field(repr=False)
    #: One :class:`Outcome` code per error, in stream order.
    codes: np.ndarray = field(repr=False)
    corrected: int = field(init=False)
    detected: int = field(init=False)
    sdc: int = field(init=False)

    def __post_init__(self) -> None:
        counts = np.bincount(self.codes, minlength=len(Outcome))
        self.corrected, self.detected, self.sdc = (int(n) for n in counts)

    @property
    def total(self) -> int:
        return self.corrected + self.detected + self.sdc

    @property
    def sdc_fraction(self) -> float:
        return self.sdc / self.total if self.total else 0.0

    @property
    def outcomes(self) -> list[ProtectionOutcome]:
        """Each error paired with its outcome, in stream order."""
        return [
            ProtectionOutcome(err, Outcome(code))
            for err, code in zip(self.errors, self.codes.tolist())
        ]


def _word_arrays(
    errors: Sequence[MemoryError_],
) -> tuple[np.ndarray, np.ndarray]:
    expected = np.fromiter(
        (err.expected for err in errors), dtype=np.uint64, count=len(errors)
    )
    actual = np.fromiter(
        (err.actual for err in errors), dtype=np.uint64, count=len(errors)
    )
    return expected, actual


def classify_secded(errors: Iterable[MemoryError_]) -> ProtectionSummary:
    """Replay an error stream through (39,32) SECDED.

    The whole population decodes in one dispatched
    :data:`repro.kernels.ecc.secded_classify` call (matrix-at-once
    syndromes).  The kernel module is imported here, not at module
    level: it imports this package's codecs as its reference oracles.
    """
    from ..kernels import ecc as _kernels

    errors = list(errors)
    codes = _kernels.secded_classify(*_word_arrays(errors))
    return ProtectionSummary("secded-32", errors, codes)


def classify_chipkill(errors: Iterable[MemoryError_]) -> ProtectionSummary:
    """Replay an error stream through the chipkill SSC-DSD codec.

    One dispatched :data:`repro.kernels.ecc.chipkill_classify` call
    computes every word's symbol syndromes from its flip nibbles.
    """
    from ..kernels import ecc as _kernels

    errors = list(errors)
    codes = _kernels.chipkill_classify(*_word_arrays(errors))
    return ProtectionSummary(
        f"chipkill-{CHIPKILL_32.spec.symbol_bits}b", errors, codes
    )


def classify_unprotected(errors: Iterable[MemoryError_]) -> ProtectionSummary:
    """The prototype's reality: every corruption reaches the application."""
    errors = list(errors)
    codes = np.full(len(errors), Outcome.SDC, dtype=np.int8)
    return ProtectionSummary("none", errors, codes)


def compare_schemes(
    errors: Sequence[MemoryError_],
) -> dict[str, ProtectionSummary]:
    """All three schemes over the same error population."""
    errors = list(errors)
    return {
        "none": classify_unprotected(errors),
        "secded": classify_secded(errors),
        "chipkill": classify_chipkill(errors),
    }
