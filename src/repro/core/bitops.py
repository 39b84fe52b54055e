"""Vectorized bit-level operations on 32-bit memory words.

The paper's multi-bit analysis (Table I, Sec III-C) needs, for every
observed corruption, the set of flipped bit positions, the flip direction
(1->0 vs 0->1), whether the flipped bits are adjacent, and the pairwise
distances between flipped bits.  These helpers implement all of that with
NumPy bit tricks so that millions of events are processed without Python
loops, per the HPC guide's vectorize-first discipline.

All functions accept scalars or arrays of ``uint32`` (wider inputs are
masked down to 32 bits, the word width of the prototype's scanner).
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 32
WORD_MASK = np.uint32(0xFFFFFFFF)

# Lookup table: popcount of every byte value, used for vectorized popcount.
_POPCOUNT8 = np.array(
    [bin(i).count("1") for i in range(256)], dtype=np.uint8
)


def _as_u32(words: np.ndarray | int) -> np.ndarray:
    """View input as a uint32 array (masking wider integers)."""
    arr = np.asarray(words)
    if arr.dtype != np.uint32:
        arr = np.bitwise_and(arr.astype(np.uint64), np.uint64(0xFFFFFFFF))
        arr = arr.astype(np.uint32)
    return arr


def _scalar_word(x) -> int | None:
    """``x`` masked to 32 bits if it is an integer scalar, else None."""
    if isinstance(x, (int, np.integer)) or (
        isinstance(x, np.ndarray) and x.ndim == 0 and x.dtype.kind in "biu"
    ):
        return int(x) & 0xFFFFFFFF
    return None


def popcount(words: np.ndarray | int) -> np.ndarray | int:
    """Number of set bits in each 32-bit word (vectorized)."""
    scalar = _scalar_word(words)
    if scalar is not None:
        return scalar.bit_count()
    w = _as_u32(words)
    b = w.view(np.uint8) if w.ndim else np.atleast_1d(w).view(np.uint8)
    counts = _POPCOUNT8[b].reshape(-1, 4).sum(axis=1, dtype=np.int64)
    if np.isscalar(words) or np.asarray(words).ndim == 0:
        return int(counts[0])
    return counts.reshape(np.asarray(words).shape)


def flipped_mask(expected: np.ndarray | int, actual: np.ndarray | int) -> np.ndarray:
    """XOR mask of bits that differ between expected and actual words."""
    return np.bitwise_xor(_as_u32(expected), _as_u32(actual))[()]


def n_flipped_bits(expected, actual) -> np.ndarray | int:
    """How many bits were corrupted in each word (paper's "#bits")."""
    return popcount(flipped_mask(expected, actual))


def bit_positions(word: int) -> np.ndarray:
    """Sorted positions (0 = LSB) of the set bits of a single 32-bit word."""
    w = int(word) & 0xFFFFFFFF
    return np.flatnonzero((w >> np.arange(WORD_BITS)) & 1).astype(np.int64)


def flipped_positions(expected: int, actual: int) -> np.ndarray:
    """Sorted bit positions corrupted between ``expected`` and ``actual``."""
    return bit_positions(int(expected) ^ int(actual))


def is_consecutive_mask(mask: np.ndarray | int) -> np.ndarray | bool:
    """True where all set bits of the XOR mask form one contiguous run.

    This is the paper's "Consecutive" column in Table I.  A word with zero
    or one set bit is trivially consecutive.  Vectorized via the classic
    trick: bits form one run iff ``m | (m-1)`` (filling trailing zeros)
    yields a mask of the form ``2^k - 1`` after shifting out the run.
    """
    m = np.atleast_1d(_as_u32(mask)).astype(np.uint64)
    nonzero = m != 0
    # Strip trailing zeros: m >>= count of trailing zeros, via m & -m.
    lowbit = m & (np.uint64(0) - m)
    shifted = np.where(nonzero, m // np.where(lowbit == 0, 1, lowbit), 0)
    # Now one run of ones iff shifted+1 is a power of two.
    result = np.where(nonzero, (shifted & (shifted + 1)) == 0, True)
    if np.isscalar(mask) or np.asarray(mask).ndim == 0:
        return bool(result[0])
    return result


def bit_span(mask: int) -> int:
    """Distance between highest and lowest set bit (0 if <2 bits set)."""
    pos = bit_positions(mask)
    if pos.size < 2:
        return 0
    return int(pos[-1] - pos[0])


def adjacent_gaps(mask: int) -> np.ndarray:
    """Gaps (in bit positions) between successive corrupted bits.

    The paper reports "3 bits is the average distance between corrupted
    bits in the same memory word and the maximum observed distance is 11".
    A gap of 1 means the two bits are adjacent.
    """
    pos = bit_positions(mask)
    if pos.size < 2:
        return np.empty(0, dtype=np.int64)
    return np.diff(pos)


def flip_directions(expected, actual) -> tuple[np.ndarray | int, np.ndarray | int]:
    """Count of 1->0 flips and 0->1 flips per word.

    A bit flips 1->0 when it is set in ``expected`` and differs; this is
    the charge-loss direction the paper finds dominates (~90%).
    """
    e_word, a_word = _scalar_word(expected), _scalar_word(actual)
    if e_word is not None and a_word is not None:
        xor_word = e_word ^ a_word
        return (xor_word & e_word).bit_count(), (xor_word & a_word).bit_count()
    e = _as_u32(expected)
    a = _as_u32(actual)
    xor = np.bitwise_xor(e, a)
    one_to_zero = popcount(np.bitwise_and(xor, e))
    zero_to_one = popcount(np.bitwise_and(xor, a))
    return one_to_zero, zero_to_one


def lowest_set_bit(mask: int) -> int:
    """Position of the least significant set bit (-1 for mask 0)."""
    m = int(mask) & 0xFFFFFFFF
    if m == 0:
        return -1
    return (m & -m).bit_length() - 1


def make_mask(positions) -> int:
    """Build a 32-bit mask from an iterable of bit positions."""
    m = 0
    for p in positions:
        if not 0 <= int(p) < WORD_BITS:
            raise ValueError(f"bit position {p} outside 32-bit word")
        m |= 1 << int(p)
    return m


def apply_flips(expected: int, mask: int) -> int:
    """Corrupt a word by XORing a flip mask (the DRAM device's primitive)."""
    return (int(expected) ^ int(mask)) & 0xFFFFFFFF


def format_word(word: int) -> str:
    """Render a word the way the paper's tables do, e.g. ``0xffff7bff``."""
    return f"0x{int(word) & 0xFFFFFFFF:08x}"
