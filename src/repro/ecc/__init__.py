"""ECC what-if models: SECDED Hamming codes and chipkill symbol codes."""

from .chipkill import CHIPKILL_32, ChipkillCode, ChipkillSpec
from .classify import (
    ProtectionOutcome,
    ProtectionSummary,
    classify_chipkill,
    classify_secded,
    classify_unprotected,
    compare_schemes,
)
from .gf import GF16, GF2m
from .hamming import (
    SECDED_32,
    SECDED_64,
    DecodeResult,
    DecodeStatus,
    HammingSecded,
    Outcome,
)

__all__ = [
    "CHIPKILL_32",
    "ChipkillCode",
    "ChipkillSpec",
    "DecodeResult",
    "DecodeStatus",
    "GF16",
    "GF2m",
    "HammingSecded",
    "Outcome",
    "ProtectionOutcome",
    "ProtectionSummary",
    "SECDED_32",
    "SECDED_64",
    "classify_chipkill",
    "classify_secded",
    "classify_unprotected",
    "compare_schemes",
]
