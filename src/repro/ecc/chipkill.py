"""Chipkill-style symbol ECC: single-symbol-correct, double-symbol-detect.

Chipkill treats the codeword as b-bit symbols, one per DRAM chip, so the
total failure of one chip (any corruption confined to one symbol) is
correctable.  We implement the classic SSC-DSD construction as a shortened
Reed-Solomon-style code over GF(2^b) with three check symbols:

    c0 = sum(d_i),  c1 = sum(alpha^i * d_i),  c2 = sum(alpha^{2i} * d_i)

which gives minimum symbol distance 4 (correct 1 symbol, detect 2).
The decoder is honest for wider corruptions: >=3 corrupted symbols may
miscorrect or alias, exactly like real hardware.

The related-work claim the paper cites (Sridharan & Liberty: chipkill is
~42x more reliable than SECDED in the field) is exercised by the
`bench_ablation_ecc` benchmark, which replays the study's error population
through both codecs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.errors import EccError
from .gf import GF2m
from .hamming import DecodeResult, DecodeStatus


@dataclass(frozen=True)
class ChipkillSpec:
    """Geometry of the symbol code."""

    symbol_bits: int = 4
    data_bits: int = 32

    def __post_init__(self) -> None:
        if self.data_bits % self.symbol_bits:
            raise EccError("data_bits must be a multiple of symbol_bits")

    @property
    def n_data_symbols(self) -> int:
        return self.data_bits // self.symbol_bits

    @property
    def n_check_symbols(self) -> int:
        return 3

    @property
    def n_symbols(self) -> int:
        return self.n_data_symbols + self.n_check_symbols


class ChipkillCode:
    """SSC-DSD symbol code over GF(2^symbol_bits).

    The codec computes on Python ints: the check symbols XOR each data
    symbol's entries in two per-position multiplier tables, and the
    single-symbol test compares discrete logs.  It is the word-by-word
    reference oracle of :mod:`repro.kernels.ecc`'s chipkill kernel.
    """

    def __init__(self, spec: ChipkillSpec | None = None):
        self.spec = spec or ChipkillSpec()
        self.field = GF2m(self.spec.symbol_bits)
        if self.spec.n_symbols >= self.field.order:
            raise EccError("too many symbols for this field (code too long)")
        exp, log = self.field._exp, self.field._log
        self._log = tuple(log.tolist())
        self._log_order = self.field.order - 1
        nonzero = np.arange(1, self.field.order)

        def multiples(power: int) -> tuple[int, ...]:
            """d * alpha^power for every field element d, indexed by d."""
            return (0, *exp[(log[nonzero] + power) % self._log_order].tolist())

        n = self.spec.n_data_symbols
        self._times_alpha_i = tuple(multiples(i) for i in range(n))
        self._times_alpha_2i = tuple(multiples(2 * i) for i in range(n))

    # -- symbol packing ---------------------------------------------------

    def _split(self, data: int) -> list[int]:
        b = self.spec.symbol_bits
        mask = (1 << b) - 1
        return [(data >> (b * i)) & mask for i in range(self.spec.n_data_symbols)]

    def split_symbols(self, data: int) -> np.ndarray:
        """Little-endian split of a data word into b-bit symbols."""
        return np.array(self._split(int(data)), dtype=np.int64)

    def join_symbols(self, symbols: np.ndarray) -> int:
        b = self.spec.symbol_bits
        out = 0
        for i, s in enumerate(symbols):
            out |= int(s) << (b * i)
        return out

    # -- encode / decode ------------------------------------------------------

    def _checks(self, symbols: list[int]) -> tuple[int, int, int]:
        """(c0, c1, c2) = (sum d_i, sum d_i alpha^i, sum d_i alpha^2i)."""
        c0 = c1 = c2 = 0
        for d, times_i, times_2i in zip(
            symbols, self._times_alpha_i, self._times_alpha_2i
        ):
            c0 ^= d
            c1 ^= times_i[d]
            c2 ^= times_2i[d]
        return c0, c1, c2

    def _encode(self, data: int) -> list[int]:
        if data < 0 or data >> self.spec.data_bits:
            raise EccError(f"data does not fit in {self.spec.data_bits} bits")
        symbols = self._split(data)
        return symbols + list(self._checks(symbols))

    def encode(self, data: int) -> np.ndarray:
        """Codeword as an array of symbols: data symbols then 3 checks."""
        return np.array(self._encode(int(data)), dtype=np.int64)

    def _decode(self, received: list[int]) -> DecodeResult:
        k = self.spec.n_data_symbols
        symbols = received[:k]
        c0, c1, c2 = self._checks(symbols)
        s0, s1, s2 = c0 ^ received[k], c1 ^ received[k + 1], c2 ^ received[k + 2]
        data = self.join_symbols(symbols)
        if not (s0 or s1 or s2):
            return DecodeResult(DecodeStatus.CLEAN, data)
        # Hypothesis: single data-symbol error at position j with value e:
        #   s0 = e, s1 = e*alpha^j, s2 = e*alpha^{2j}, so the ratios
        #   s1/s0 and s2/s1 are both alpha^j: their logs agree and are j.
        if s0 and s1 and s2:
            log = self._log
            j = (log[s1] - log[s0]) % self._log_order
            if j == (log[s2] - log[s1]) % self._log_order and j < k:
                return DecodeResult(
                    DecodeStatus.CORRECTED,
                    data ^ (s0 << (self.spec.symbol_bits * j)),
                    j,
                )
        # Single *check*-symbol errors: exactly one syndrome nonzero.
        if (s0 != 0) + (s1 != 0) + (s2 != 0) == 1:
            return DecodeResult(DecodeStatus.CORRECTED, data, -1)
        return DecodeResult(DecodeStatus.DETECTED, data)

    def decode(self, received: np.ndarray) -> DecodeResult:
        """Honest SSC-DSD decoding of a received symbol vector."""
        received = np.asarray(received, dtype=np.int64)
        if received.shape[0] != self.spec.n_symbols:
            raise EccError("received vector has wrong symbol count")
        symbols = received.tolist()
        if min(symbols) < 0 or max(symbols) >= self.field.order:
            raise EccError(f"element outside GF(2^{self.field.m})")
        return self._decode(symbols)

    def decode_flips(self, data: int, flip_mask_data: int) -> DecodeResult:
        """Replay a logical data corruption through the chipkill codec."""
        data = int(data)
        received = self._encode(data)
        for i, flip in enumerate(self._split(int(flip_mask_data))):
            received[i] ^= flip
        result = self._decode(received)
        if result.status is DecodeStatus.CORRECTED and result.data != data:
            return DecodeResult(
                DecodeStatus.MISCORRECTED, result.data, result.corrected_position
            )
        if result.status is DecodeStatus.CLEAN and result.data != data:
            return DecodeResult(DecodeStatus.UNDETECTED, result.data)
        return result

    def symbols_touched(self, flip_mask_data: int) -> int:
        """How many data symbols a logical flip mask touches."""
        return int(np.count_nonzero(self.split_symbols(flip_mask_data)))


#: Default 32-bit-data chipkill codec with 4-bit symbols (x4 DRAM chips).
CHIPKILL_32 = ChipkillCode()
