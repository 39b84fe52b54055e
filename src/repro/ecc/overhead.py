"""Storage-overhead vs reliability trade-offs across ECC schemes.

The paper's Sec IV asks what protection future systems need; the answer
is an engineering trade: check bits cost DRAM capacity and energy, SDC
costs correctness.  This module pairs each codec with its storage
overhead and measures its outcome distribution over a reference error
population, producing the cost/reliability frontier the ablation bench
prints.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

from ..core.events import MemoryError_
from .chipkill import ChipkillCode, ChipkillSpec
from .hamming import SECDED_32, SECDED_64, DecodeResult, DecodeStatus, Outcome


@dataclass(frozen=True)
class SchemeSpec:
    """A protection scheme with its storage geometry."""

    name: str
    data_bits: int
    total_bits: int
    #: (data word, flip mask) -> :class:`DecodeResult`.
    decode_flips: Callable[[int, int], DecodeResult]

    @property
    def overhead(self) -> float:
        """Extra storage per data bit (check bits / data bits)."""
        return (self.total_bits - self.data_bits) / self.data_bits


def _unprotected_decode(data: int, mask: int) -> DecodeResult:
    return DecodeResult(DecodeStatus.UNDETECTED, data ^ mask)


def standard_schemes() -> list[SchemeSpec]:
    """The schemes compared in the overhead ablation.

    The 64-bit chipkill uses 8-bit symbols (one per x8 DRAM chip) so the
    code stays within GF(256)'s length bound.
    """
    ck32 = ChipkillCode(ChipkillSpec(symbol_bits=4, data_bits=32))
    ck64 = ChipkillCode(ChipkillSpec(symbol_bits=8, data_bits=64))
    return [
        SchemeSpec("none", 32, 32, _unprotected_decode),
        SchemeSpec(
            "secded (39,32)",
            32,
            SECDED_32.codeword_bits,
            SECDED_32.decode_flips,
        ),
        SchemeSpec(
            "secded (72,64)",
            64,
            SECDED_64.codeword_bits,
            SECDED_64.decode_flips,
        ),
        SchemeSpec(
            "chipkill x4 (32b)",
            32,
            ck32.spec.n_symbols * 4,
            ck32.decode_flips,
        ),
        SchemeSpec(
            "chipkill x8 (64b)",
            64,
            ck64.spec.n_symbols * 8,
            ck64.decode_flips,
        ),
    ]


@dataclass(frozen=True)
class TradeoffRow:
    """One scheme's position on the cost/reliability frontier."""

    scheme: str
    overhead: float
    corrected: int
    detected: int
    sdc: int

    @property
    def total(self) -> int:
        return self.corrected + self.detected + self.sdc

    @property
    def sdc_fraction(self) -> float:
        return self.sdc / self.total if self.total else 0.0


def tradeoff_table(
    errors: Sequence[MemoryError_], schemes: list[SchemeSpec] | None = None
) -> list[TradeoffRow]:
    """Replay an error population through every scheme.

    32-bit observations are replayed verbatim; for 64-bit codecs the
    corrupted word occupies the low half of the codeword's data (the
    flips stay identical, so outcomes are comparable).
    """
    if any(err.flip_mask == 0 for err in errors):
        raise ValueError("rows without corruption cannot be classified")
    rows = []
    for spec in schemes or standard_schemes():
        counts = Counter(
            spec.decode_flips(err.expected, err.flip_mask).outcome
            for err in errors
        )
        rows.append(
            TradeoffRow(
                scheme=spec.name,
                overhead=spec.overhead,
                corrected=counts[Outcome.CORRECTED],
                detected=counts[Outcome.DETECTED],
                sdc=counts[Outcome.SDC],
            )
        )
    return rows


def dominating_schemes(rows: list[TradeoffRow]) -> list[TradeoffRow]:
    """The Pareto frontier: no other scheme has both lower overhead and
    lower SDC fraction."""
    frontier = []
    for row in rows:
        dominated = any(
            other.overhead < row.overhead and other.sdc_fraction <= row.sdc_fraction
            or other.overhead <= row.overhead and other.sdc_fraction < row.sdc_fraction
            for other in rows
        )
        if not dominated:
            frontier.append(row)
    return frontier
