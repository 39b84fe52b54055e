"""Scanner verify kernels: whole-region pattern comparison.

The scanner's inner loop checks every word of a region against the
pattern value written on the previous pass.  The vectorized kernel
compares the region with the pattern, runs ``flatnonzero`` over the
boolean mask and XORs only the hits to recover their flip masks (and,
on demand, flipped bit positions via little-endian ``unpackbits``); the
reference kernel is the per-word Python loop the scanner shipped with,
kept as the differential oracle.

Both implementations return the same :class:`ScanHits` — hit order is
ascending word index, so outputs compare with ``==`` on every array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dispatch import register_kernel

#: Bits per scanned word (the device stores uint32 words).
WORD_BITS = 32

_WORD_MASK = 0xFFFFFFFF


def _as_words(values: np.ndarray) -> np.ndarray:
    """Coerce a region to uint32 words (wider ints are masked, like bitops)."""
    if not isinstance(values, np.ndarray):
        values = np.asarray(values, dtype=np.uint64)
    if values.dtype == np.uint32:
        return values
    return np.bitwise_and(
        values.astype(np.uint64), np.uint64(_WORD_MASK)
    ).astype(np.uint32)


@dataclass(frozen=True)
class ScanHits:
    """Mismatching words of one verify pass, in ascending word order."""

    #: Indices of mismatching words within the scanned region (int64).
    word_index: np.ndarray
    #: Observed word value at each hit (uint32).
    actual: np.ndarray
    #: ``actual ^ expected`` at each hit — never zero (uint32).
    flip_mask: np.ndarray

    def __len__(self) -> int:
        return int(self.word_index.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScanHits):
            return NotImplemented
        return (
            np.array_equal(self.word_index, other.word_index)
            and np.array_equal(self.actual, other.actual)
            and np.array_equal(self.flip_mask, other.flip_mask)
        )


def _verify_words_reference(observed: np.ndarray, expected: int) -> ScanHits:
    """Per-word scan loop: the scalar predecessor of the verify pass."""
    words = _as_words(observed)
    value = int(expected) & _WORD_MASK
    index: list[int] = []
    actual: list[int] = []
    masks: list[int] = []
    for i in range(words.shape[0]):
        word = int(words[i])
        if word != value:
            index.append(i)
            actual.append(word)
            masks.append(word ^ value)
    return ScanHits(
        word_index=np.asarray(index, dtype=np.int64),
        actual=np.asarray(actual, dtype=np.uint32),
        flip_mask=np.asarray(masks, dtype=np.uint32),
    )


def _verify_words_vectorized(observed: np.ndarray, expected: int) -> ScanHits:
    """One compare + nonzero pass over the region; XOR only at the hits.

    The compare writes a bool mask a quarter the size of the region,
    where a whole-region XOR would allocate a second full-size copy.
    """
    words = _as_words(observed)
    value = np.uint32(int(expected) & _WORD_MASK)
    index = np.flatnonzero(words != value).astype(np.int64, copy=False)
    actual = words[index]
    return ScanHits(word_index=index, actual=actual, flip_mask=actual ^ value)


verify_words = register_kernel(
    "scan.verify_words",
    reference=_verify_words_reference,
    vectorized=_verify_words_vectorized,
)


def _hit_bit_positions_reference(
    flip_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Shift-and-test loop over every bit of every mask."""
    masks = _as_words(flip_mask)
    rows: list[int] = []
    bits: list[int] = []
    for row in range(masks.shape[0]):
        mask = int(masks[row])
        for bit in range(WORD_BITS):
            if (mask >> bit) & 1:
                rows.append(row)
                bits.append(bit)
    return (
        np.asarray(rows, dtype=np.int64),
        np.asarray(bits, dtype=np.int64),
    )


def _hit_bit_positions_vectorized(
    flip_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Little-endian unpackbits: bit b of word w -> (row w, position b).

    Views each uint32 mask as 4 little-endian bytes, so byte*8 + bit is
    the logical bit position; ``np.nonzero`` on the (n, 32) bit plane
    yields row-major order — identical to the reference loop's.
    """
    masks = np.ascontiguousarray(_as_words(flip_mask), dtype=np.uint32)
    planes = np.unpackbits(
        masks.reshape(-1, 1).view(np.uint8), axis=1, bitorder="little"
    )
    rows, positions = np.nonzero(planes)
    return rows.astype(np.int64), positions.astype(np.int64)


hit_bit_positions = register_kernel(
    "scan.hit_bit_positions",
    reference=_hit_bit_positions_reference,
    vectorized=_hit_bit_positions_vectorized,
)


def _scan_region_reference(
    observed: np.ndarray, pattern_values: Sequence[int]
) -> list[ScanHits]:
    return [
        _verify_words_reference(observed, value) for value in pattern_values
    ]


def _scan_region_vectorized(
    observed: np.ndarray, pattern_values: Sequence[int]
) -> list[ScanHits]:
    """One vectorized verify pass per pattern over the same region."""
    words = _as_words(observed)
    return [
        _verify_words_vectorized(words, value) for value in pattern_values
    ]


scan_region = register_kernel(
    "scan.scan_region",
    reference=_scan_region_reference,
    vectorized=_scan_region_vectorized,
)
