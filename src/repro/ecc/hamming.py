"""Hamming SECDED codecs: (39,32) and (72,64).

Single-Error-Correct / Double-Error-Detect codes built the classical way:
``r`` Hamming check bits placed at power-of-two codeword positions plus
one overall parity bit.  The decoder distinguishes:

* clean codeword,
* single-bit error (corrected, position reported),
* double-bit error (detected, uncorrectable),
* wider corruptions — decoded *honestly*: depending on the pattern they
  either alias to a valid codeword (silent data corruption), look like a
  single-bit error and get "corrected" into the wrong word (miscorrection,
  also SDC from the application's view), or look uncorrectable (detected).

This honest decoding is what lets :mod:`repro.ecc.classify` replay every
corruption the study observed through a protected system and report what
ECC *would have* done — the paper's Sec III-C/III-D what-if analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from ..core.errors import EccError


class DecodeStatus(str, Enum):
    CLEAN = "clean"                 # no error
    CORRECTED = "corrected"         # single-bit error fixed
    DETECTED = "detected"           # uncorrectable error flagged
    MISCORRECTED = "miscorrected"   # >2-bit error silently "fixed" wrongly
    UNDETECTED = "undetected"       # >2-bit error aliased to a codeword


class Outcome(IntEnum):
    """What a protected system reports for one corrupted word.

    The values are the outcome codes the :mod:`repro.kernels.ecc`
    classification kernels return.
    """

    CORRECTED = 0   # fixed transparently
    DETECTED = 1    # uncorrectable, flagged (machine check / crash)
    SDC = 2         # wrong data handed to the application silently


@dataclass(frozen=True)
class DecodeResult:
    status: DecodeStatus
    data: int
    #: Codeword bit position the decoder flipped (for corrections), else -1.
    corrected_position: int = -1

    @property
    def is_sdc(self) -> bool:
        """Whether the outcome silently hands wrong data to the application."""
        return self.status in (DecodeStatus.MISCORRECTED, DecodeStatus.UNDETECTED)

    @property
    def outcome(self) -> Outcome:
        """The system-level outcome of this decode."""
        if self.is_sdc:
            return Outcome.SDC
        if self.status is DecodeStatus.DETECTED:
            return Outcome.DETECTED
        return Outcome.CORRECTED


class HammingSecded:
    """A SECDED code over ``data_bits`` data bits (32 or 64 typical)."""

    def __init__(self, data_bits: int = 32):
        if data_bits < 4:
            raise EccError("SECDED needs at least 4 data bits")
        self.data_bits = data_bits
        # r check bits such that 2^r >= data + r + 1.
        r = 1
        while (1 << r) < data_bits + r + 1:
            r += 1
        self.check_bits = r
        #: total codeword bits including the overall-parity bit (position 0)
        self.codeword_bits = data_bits + r + 1

        # Hamming positions run 1..(data+r); powers of two hold check bits.
        n_hamming = data_bits + r
        positions = np.arange(1, n_hamming + 1, dtype=np.int64)
        is_check = (positions & (positions - 1)) == 0
        self._data_positions = positions[~is_check]
        self._check_positions = positions[is_check]
        if self._data_positions.shape[0] != data_bits:
            raise EccError("internal: data position count mismatch")
        # For syndrome computation: bitmask of each codeword position.
        self._position_of_codeword_bit = np.concatenate(
            ([0], positions)
        )  # codeword bit i (0=parity) sits at Hamming position i

    # -- helpers ------------------------------------------------------------

    def _data_to_codeword_bits(self, data: int) -> np.ndarray:
        """Spread data bits into an array indexed by Hamming position (1-based)."""
        n_hamming = self.data_bits + self.check_bits
        bits = np.zeros(n_hamming + 1, dtype=np.int64)  # index 0 unused here
        data_bit_values = (int(data) >> np.arange(self.data_bits)) & 1
        bits[self._data_positions] = data_bit_values
        return bits

    def _compute_checks(self, bits: np.ndarray) -> np.ndarray:
        """Check-bit values for a position-indexed bit array."""
        n_hamming = self.data_bits + self.check_bits
        positions = np.arange(1, n_hamming + 1)
        checks = np.zeros(self.check_bits, dtype=np.int64)
        for i in range(self.check_bits):
            mask = (positions & (1 << i)) != 0
            checks[i] = int(np.bitwise_xor.reduce(bits[1:][mask]))
        return checks

    # -- public API -----------------------------------------------------------

    def encode(self, data: int) -> int:
        """Encode a data word into an integer codeword.

        Codeword bit layout: bit 0 = overall parity, bits 1..n = Hamming
        positions 1..n (check bits at powers of two, data elsewhere).
        """
        data = int(data)
        if data < 0 or data >> self.data_bits:
            raise EccError(f"data does not fit in {self.data_bits} bits")
        bits = self._data_to_codeword_bits(data)
        checks = self._compute_checks(bits)
        bits[self._check_positions] = checks
        overall = int(np.bitwise_xor.reduce(bits[1:]))
        codeword = overall
        for pos in range(1, bits.shape[0]):
            codeword |= int(bits[pos]) << pos
        return codeword

    def extract_data(self, codeword: int) -> int:
        """Pull the data bits out of a codeword (no checking)."""
        data = 0
        for i, pos in enumerate(self._data_positions):
            data |= ((int(codeword) >> int(pos)) & 1) << i
        return data

    def decode(self, codeword: int) -> DecodeResult:
        """Decode with honest SECDED semantics (see module docstring)."""
        codeword = int(codeword)
        if codeword < 0 or codeword >> self.codeword_bits:
            raise EccError("codeword width mismatch")
        n_hamming = self.data_bits + self.check_bits
        bits = np.zeros(n_hamming + 1, dtype=np.int64)
        for pos in range(1, n_hamming + 1):
            bits[pos] = (codeword >> pos) & 1
        stored_checks = bits[self._check_positions]
        computed = self._compute_checks(
            self._masked_data_bits(bits)
        )
        syndrome = 0
        for i in range(self.check_bits):
            if int(stored_checks[i]) != int(computed[i]):
                syndrome |= 1 << i
        overall_stored = codeword & 1
        overall_computed = int(np.bitwise_xor.reduce(bits[1:]))
        parity_ok = overall_stored == overall_computed

        if syndrome == 0 and parity_ok:
            return DecodeResult(DecodeStatus.CLEAN, self.extract_data(codeword))
        if syndrome == 0 and not parity_ok:
            # Overall-parity bit itself flipped: correctable.
            return DecodeResult(
                DecodeStatus.CORRECTED, self.extract_data(codeword), 0
            )
        if parity_ok:
            # Nonzero syndrome + even parity = even number of flips: detected.
            return DecodeResult(DecodeStatus.DETECTED, self.extract_data(codeword))
        # Odd number of flips with nonzero syndrome: decoder assumes single.
        if syndrome <= n_hamming:
            corrected = codeword ^ (1 << syndrome)
            return DecodeResult(
                DecodeStatus.CORRECTED, self.extract_data(corrected), syndrome
            )
        # Syndrome points outside the codeword: provably uncorrectable.
        return DecodeResult(DecodeStatus.DETECTED, self.extract_data(codeword))

    def _masked_data_bits(self, bits: np.ndarray) -> np.ndarray:
        """Bits array with check positions zeroed (for syndrome recompute)."""
        out = bits.copy()
        out[self._check_positions] = 0
        return out

    def decode_flips(self, data: int, flip_mask_data: int) -> DecodeResult:
        """Encode ``data``, flip the given *data-bit* mask, decode.

        This is the replay primitive used by the classifier: the scanner
        observed a logical data-word corruption; what would a SECDED-
        protected DIMM have reported?
        """
        codeword = self.encode(data)
        cw_flips = 0
        for i, pos in enumerate(self._data_positions):
            if (int(flip_mask_data) >> i) & 1:
                cw_flips |= 1 << int(pos)
        result = self.decode(codeword ^ cw_flips)
        # Refine CORRECTED for multi-bit inputs: if the decoder "corrected"
        # but the recovered data differs from the original, it miscorrected.
        if result.status is DecodeStatus.CORRECTED and result.data != data:
            return DecodeResult(
                DecodeStatus.MISCORRECTED, result.data, result.corrected_position
            )
        # If the decoder saw a clean codeword but data changed, the flips
        # aliased to another valid codeword: silent corruption.
        if result.status is DecodeStatus.CLEAN and result.data != data:
            return DecodeResult(DecodeStatus.UNDETECTED, result.data)
        return result


#: Ready-made codecs for the two standard widths.
SECDED_32 = HammingSecded(32)
SECDED_64 = HammingSecded(64)
