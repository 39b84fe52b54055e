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
    """A SECDED code over ``data_bits`` data bits (32 or 64 typical).

    The codec computes on Python ints: data bits move to their Hamming
    positions a run at a time, and each check or syndrome bit is the
    parity of the codeword masked by the positions that check covers.
    It is the word-by-word reference oracle of :mod:`repro.kernels.ecc`.
    """

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
        # Data bits fill the positions between check bits in order: run c
        # is positions 2^c+1 .. 2^(c+1)-1, the last run cut at n_hamming.
        # Each run is (first data bit, width mask, first position).
        runs = []
        first_bit = 0
        for c in range(1, r):
            lo = (1 << c) + 1
            width = min((1 << (c + 1)) - 1, n_hamming) - lo + 1
            runs.append((first_bit, (1 << width) - 1, lo))
            first_bit += width
        self._runs = tuple(runs)
        #: cover[c]: the codeword bits whose Hamming position has bit c
        #: set, check position 2^c included.
        self._cover = tuple(
            sum(1 << p for p in range(1, n_hamming + 1) if p >> c & 1)
            for c in range(r)
        )

    # -- helpers ------------------------------------------------------------

    def _spread(self, data: int) -> int:
        """Data bits at their codeword positions, check bits zero."""
        codeword = 0
        for first_bit, mask, pos in self._runs:
            codeword |= (data >> first_bit & mask) << pos
        return codeword

    # -- public API -----------------------------------------------------------

    def encode(self, data: int) -> int:
        """Encode a data word into an integer codeword.

        Codeword bit layout: bit 0 = overall parity, bits 1..n = Hamming
        positions 1..n (check bits at powers of two, data elsewhere).
        """
        data = int(data)
        if data < 0 or data >> self.data_bits:
            raise EccError(f"data does not fit in {self.data_bits} bits")
        codeword = self._spread(data)
        # No check position lies in another check's cover, so each check
        # sees only data bits.
        for c, cover in enumerate(self._cover):
            codeword |= ((codeword & cover).bit_count() & 1) << (1 << c)
        return codeword | (codeword.bit_count() & 1)

    def extract_data(self, codeword: int) -> int:
        """Pull the data bits out of a codeword (no checking)."""
        codeword = int(codeword)
        data = 0
        for first_bit, mask, pos in self._runs:
            data |= (codeword >> pos & mask) << first_bit
        return data

    def decode(self, codeword: int) -> DecodeResult:
        """Decode with honest SECDED semantics (see module docstring)."""
        codeword = int(codeword)
        if codeword < 0 or codeword >> self.codeword_bits:
            raise EccError("codeword width mismatch")
        syndrome = 0
        for c, cover in enumerate(self._cover):
            syndrome |= ((codeword & cover).bit_count() & 1) << c
        parity_ok = not codeword.bit_count() & 1

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
        if syndrome <= self.data_bits + self.check_bits:
            corrected = codeword ^ (1 << syndrome)
            return DecodeResult(
                DecodeStatus.CORRECTED, self.extract_data(corrected), syndrome
            )
        # Syndrome points outside the codeword: provably uncorrectable.
        return DecodeResult(DecodeStatus.DETECTED, self.extract_data(codeword))

    def decode_flips(self, data: int, flip_mask_data: int) -> DecodeResult:
        """Encode ``data``, flip the given *data-bit* mask, decode.

        This is the replay primitive used by the classifier: the scanner
        observed a logical data-word corruption; what would a SECDED-
        protected DIMM have reported?
        """
        data = int(data)
        result = self.decode(self.encode(data) ^ self._spread(int(flip_mask_data)))
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
