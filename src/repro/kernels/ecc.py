"""Matrix-at-once ECC kernels over packed uint64 words.

SECDED: the (39,32) parity-check matrix is packed into one uint64
column mask per check bit; a whole population's syndromes are then a
bit-matrix multiply over GF(2) — ``popcount(words & H[check]) mod 2``
broadcast over an (n, checks) grid — instead of the scalar codec's
per-word bit spreading.  Classification replays the code's linearity:
the syndrome of the *flip mask* alone decides the outcome.

Chipkill: the SSC-DSD code over GF(16) is linear too, so the three
symbol syndromes of a corrupted word are the syndromes of its flip
nibbles: ``s0 = xor(f_i)``, ``s1 = xor(f_i * alpha^i)``,
``s2 = xor(f_i * alpha^{2i})`` — all computed with the vectorized
GF(16) table arithmetic, replacing the per-word encode/decode replay.

The reference oracle of each classification kernel is the scalar
codec itself: ``SECDED_32``/``CHIPKILL_32.decode_flips(...).outcome``
word by word.  Both return :class:`~repro.ecc.hamming.Outcome` codes.
"""

from __future__ import annotations

import numpy as np

from ..ecc.chipkill import CHIPKILL_32
from ..ecc.gf import GF16
from ..ecc.hamming import SECDED_32, Outcome
from .dispatch import register_kernel

_WORD_MASK = 0xFFFFFFFF


def build_secded_tables(codec=SECDED_32):
    """Packed parity-check matrix + syndrome lookup tables for a codec.

    Returns ``(check_masks, syndrome_to_data, syndrome_is_check,
    max_position)``: ``check_masks[c]`` has bit ``d`` set when check
    ``c`` covers data bit ``d`` (the GF(2) parity-check matrix, one
    uint64 row per check), and the lookups map a syndrome value to the
    data bit it points at (or -1) / whether it names a check position.
    """
    n_checks = codec.check_bits
    data_positions = codec._data_positions
    check_masks = np.zeros(n_checks, dtype=np.uint64)
    for data_bit, pos in enumerate(data_positions):
        for check in range(n_checks):
            if int(pos) & (1 << check):
                check_masks[check] |= np.uint64(1) << np.uint64(data_bit)
    syndrome_to_data = np.full(1 << n_checks, -1, dtype=np.int64)
    for data_bit, pos in enumerate(data_positions):
        syndrome_to_data[int(pos)] = data_bit
    syndrome_is_check = np.zeros(1 << n_checks, dtype=bool)
    for pos in codec._check_positions:
        syndrome_is_check[int(pos)] = True
    max_position = codec.data_bits + codec.check_bits
    return check_masks, syndrome_to_data, syndrome_is_check, max_position


_H32, _SYN_TO_DATA, _SYN_IS_CHECK, _MAX_POSITION = build_secded_tables()

#: Syndrome bit weights for folding the (n, checks) bit plane to ints.
_SYN_WEIGHTS = np.left_shift(
    np.int64(1), np.arange(_H32.shape[0], dtype=np.int64)
)

if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def _popcount64(values: np.ndarray) -> np.ndarray:
        return np.bitwise_count(values).astype(np.int64)

else:  # pragma: no cover - exercised only on numpy < 2.0

    _POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)

    def _popcount64(values: np.ndarray) -> np.ndarray:
        flat = np.ascontiguousarray(values, dtype=np.uint64).reshape(-1)
        counts = _POP8[flat.view(np.uint8)].reshape(flat.shape[0], 8).sum(axis=1)
        return counts.reshape(values.shape)


def _as_u64(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.uint64)


def _flip_masks(expected: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Data-word flip masks; every row must carry a corruption."""
    masks = np.bitwise_and(
        np.bitwise_xor(_as_u64(expected), _as_u64(actual)), np.uint64(_WORD_MASK)
    )
    if np.any(masks == 0):
        raise ValueError("rows without corruption cannot be classified")
    return masks


def _codec_replay(codec, expected: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Outcome codes from a scalar codec's per-word ``decode_flips``."""
    masks = _flip_masks(expected, actual)
    data = np.bitwise_and(_as_u64(expected), np.uint64(_WORD_MASK))
    out = np.empty(masks.shape[0], dtype=np.int8)
    for i in range(masks.shape[0]):
        out[i] = codec.decode_flips(int(data[i]), int(masks[i])).outcome
    return out


# ---------------------------------------------------------------------------
# SECDED syndromes
# ---------------------------------------------------------------------------


def _secded_syndromes_reference(data: np.ndarray) -> np.ndarray:
    """Per-word check bits read from the scalar codec's codeword.

    Check ``c`` sits at Hamming position ``2^c``, which is codeword bit
    ``1 << c``.
    """
    codec = SECDED_32
    words = _as_u64(data)
    out = np.empty((words.shape[0], codec.check_bits), dtype=np.uint8)
    for i in range(words.shape[0]):
        codeword = codec.encode(int(words[i]) & _WORD_MASK)
        for c in range(codec.check_bits):
            out[i, c] = codeword >> (1 << c) & 1
    return out


def _secded_syndromes_vectorized(data: np.ndarray) -> np.ndarray:
    """All check bits of all words at once: GF(2) bit-matrix multiply."""
    words = np.bitwise_and(_as_u64(data), np.uint64(_WORD_MASK))
    covered = np.bitwise_and(words[:, None], _H32[None, :])
    return (_popcount64(covered) & np.int64(1)).astype(np.uint8)


secded_syndromes = register_kernel(
    "ecc.secded_syndromes",
    reference=_secded_syndromes_reference,
    vectorized=_secded_syndromes_vectorized,
)


# ---------------------------------------------------------------------------
# SECDED classification
# ---------------------------------------------------------------------------

def _secded_classify_reference(
    expected: np.ndarray, actual: np.ndarray
) -> np.ndarray:
    """Per-word replay through the scalar (39,32) SECDED codec."""
    return _codec_replay(SECDED_32, expected, actual)


def _secded_classify_vectorized(
    expected: np.ndarray, actual: np.ndarray
) -> np.ndarray:
    """Matrix-at-once SECDED outcomes from the flip masks alone.

    Code linearity: the received codeword's syndrome equals the
    syndrome of the data-bit flip mask, and overall parity flips with
    the mask's popcount — so the whole decode reduces to one syndrome
    matrix product plus table lookups, mirroring
    :meth:`HammingSecded.decode_flips` case by case.
    """
    masks = _flip_masks(expected, actual)
    n_flipped = _popcount64(masks)
    syndrome = _secded_syndromes_vectorized(masks).astype(np.int64) @ _SYN_WEIGHTS

    out = np.empty(masks.shape[0], dtype=np.int8)
    parity_odd = (n_flipped & np.int64(1)).astype(bool)
    even = ~parity_odd
    # Even flips: nonzero syndrome is the DED guarantee (detected);
    # zero syndrome aliases to a valid codeword (silent corruption).
    out[even & (syndrome != 0)] = Outcome.DETECTED
    out[even & (syndrome == 0)] = Outcome.SDC
    single = parity_odd & (n_flipped == 1)
    out[single] = Outcome.CORRECTED
    multi_odd = parity_odd & (n_flipped > 1)
    if np.any(multi_odd):
        syn = syndrome[multi_odd]
        points_at_data = _SYN_TO_DATA[syn] >= 0
        is_check = _SYN_IS_CHECK[syn]
        zero_syndrome = syn == 0
        in_range = syn <= _MAX_POSITION
        # Any "correction" of a >1-flip pattern restores the wrong word
        # (miscorrection, an SDC); out-of-range syndromes are detected.
        codes = np.where(
            zero_syndrome | points_at_data | is_check, Outcome.SDC, Outcome.DETECTED
        )
        codes = np.where(~in_range, Outcome.DETECTED, codes)
        out[multi_odd] = codes.astype(np.int8)
    return out


secded_classify = register_kernel(
    "ecc.secded_classify",
    reference=_secded_classify_reference,
    vectorized=_secded_classify_vectorized,
)


# ---------------------------------------------------------------------------
# Chipkill classification
# ---------------------------------------------------------------------------

_N_DATA_SYMBOLS = CHIPKILL_32.spec.n_data_symbols
_SYMBOL_BITS = CHIPKILL_32.spec.symbol_bits
_SYMBOL_SHIFTS = np.arange(
    0,
    _N_DATA_SYMBOLS * _SYMBOL_BITS,
    _SYMBOL_BITS,
    dtype=np.uint64,
)
_SYMBOL_MASK = np.uint64((1 << _SYMBOL_BITS) - 1)
_ALPHA_I = np.asarray(
    GF16.pow_alpha(np.arange(_N_DATA_SYMBOLS, dtype=np.int64)), dtype=np.int64
)
_ALPHA_2I = np.asarray(
    GF16.pow_alpha(2 * np.arange(_N_DATA_SYMBOLS, dtype=np.int64)),
    dtype=np.int64,
)


def _chipkill_classify_reference(
    expected: np.ndarray, actual: np.ndarray
) -> np.ndarray:
    """Per-word encode/decode replay through the scalar symbol codec."""
    return _codec_replay(CHIPKILL_32, expected, actual)


def _chipkill_classify_vectorized(
    expected: np.ndarray, actual: np.ndarray
) -> np.ndarray:
    """Whole-population chipkill outcomes from symbol syndromes.

    Linearity over GF(16) means the syndromes depend only on the flip
    nibbles, and (for nonzero data flips) the scalar decode tree maps to
    outcome codes as: consistent single-symbol locator at a data
    position -> CORRECTED when exactly one symbol flipped, else a
    miscorrection (SDC); all syndromes zero -> aliased (SDC); exactly
    one nonzero syndrome -> a "check symbol correction" that hands over
    corrupt data (SDC); anything else -> DETECTED.
    """
    masks = _flip_masks(expected, actual)
    flips = (
        np.bitwise_and(masks[:, None] >> _SYMBOL_SHIFTS[None, :], _SYMBOL_MASK)
    ).astype(np.int64)
    n_symbols = np.count_nonzero(flips, axis=1)
    s0 = np.bitwise_xor.reduce(flips, axis=1)
    s1 = np.bitwise_xor.reduce(GF16.mul(flips, _ALPHA_I[None, :]), axis=1)
    s2 = np.bitwise_xor.reduce(GF16.mul(flips, _ALPHA_2I[None, :]), axis=1)

    out = np.full(masks.shape[0], Outcome.DETECTED, dtype=np.int8)
    nonzero = (
        (s0 != 0).astype(np.int64)
        + (s1 != 0).astype(np.int64)
        + (s2 != 0).astype(np.int64)
    )
    out[nonzero == 0] = Outcome.SDC
    out[nonzero == 1] = Outcome.SDC

    all_nonzero = nonzero == 3
    # Safe substitutes keep the table lookups total; results are only
    # consumed where the guards hold.
    ratio1 = GF16.div(np.where(all_nonzero, s1, 1), np.where(all_nonzero, s0, 1))
    ratio2 = GF16.div(np.where(all_nonzero, s2, 1), np.where(all_nonzero, s1, 1))
    consistent = all_nonzero & (ratio1 == ratio2)
    locator = GF16.log_alpha(np.where(consistent, ratio1, 1))
    looks_single = consistent & (locator < _N_DATA_SYMBOLS)
    out[looks_single & (n_symbols == 1)] = Outcome.CORRECTED
    # A multi-symbol pattern whose syndromes mimic a single-symbol error
    # gets "corrected" into the wrong word: miscorrection.
    out[looks_single & (n_symbols > 1)] = Outcome.SDC
    return out


chipkill_classify = register_kernel(
    "ecc.chipkill_classify",
    reference=_chipkill_classify_reference,
    vectorized=_chipkill_classify_vectorized,
)
