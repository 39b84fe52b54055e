"""Unit and property tests for the vectorized bit operations."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import bitops

WORDS = st.integers(min_value=0, max_value=0xFFFFFFFF)


class TestPopcount:
    def test_known_values(self):
        assert bitops.popcount(0) == 0
        assert bitops.popcount(1) == 1
        assert bitops.popcount(0xFFFFFFFF) == 32
        assert bitops.popcount(0xFFFF7BFF) == 30

    def test_array_input(self):
        arr = np.array([0, 1, 3, 0xFF], dtype=np.uint32)
        assert bitops.popcount(arr).tolist() == [0, 1, 2, 8]

    def test_array_shape_preserved(self):
        arr = np.arange(12, dtype=np.uint32).reshape(3, 4)
        assert bitops.popcount(arr).shape == (3, 4)

    @given(WORDS)
    def test_matches_python_bin(self, w):
        assert bitops.popcount(w) == bin(w).count("1")

    @pytest.mark.parametrize(
        "value", [0, 5, 0xFFFFFFFF, -1, -0x80000001, 2**40 + 3, 2**63 - 1, 2**64 - 1]
    )
    def test_scalar_equals_array(self, value):
        """Negative and wider-than-32-bit ints are masked, as arrays are."""
        dtype = np.uint64 if value >= 2**63 else np.int64
        expected = int(bitops.popcount(np.array([value], dtype=dtype))[0])
        for scalar in (value, dtype(value), np.array(value, dtype=dtype)):
            result = bitops.popcount(scalar)
            assert type(result) is int
            assert result == expected


class TestFlippedMask:
    @given(WORDS, WORDS)
    def test_mask_is_xor(self, a, b):
        assert bitops.flipped_mask(a, b) == a ^ b

    @given(WORDS, WORDS)
    def test_n_flipped_matches_positions(self, a, b):
        n = bitops.n_flipped_bits(a, b)
        assert n == len(bitops.flipped_positions(a, b))


class TestConsecutive:
    @pytest.mark.parametrize(
        "mask,expected",
        [
            (0b1, True),
            (0b11, True),
            (0b111, True),
            (0b101, False),
            (0b1100, True),
            (0b1010, False),
            (0xFF, True),
            (0x8200, False),  # Table I 0xffff7dff pattern
            (0xC00, True),    # Table I 0xfffff3ff pattern
            (0, True),
        ],
    )
    def test_known(self, mask, expected):
        assert bitops.is_consecutive_mask(mask) is expected

    @given(st.integers(min_value=0, max_value=31), st.integers(min_value=1, max_value=32))
    def test_contiguous_runs_are_consecutive(self, start, length):
        if start + length > 32:
            length = 32 - start
        if length == 0:
            return
        mask = ((1 << length) - 1) << start
        assert bitops.is_consecutive_mask(mask)

    @given(WORDS)
    def test_matches_reference(self, mask):
        positions = bitops.bit_positions(mask)
        if positions.size <= 1:
            reference = True
        else:
            reference = bool(np.all(np.diff(positions) == 1))
        assert bool(bitops.is_consecutive_mask(mask)) == reference

    def test_vectorized(self):
        masks = np.array([0b11, 0b101, 0], dtype=np.uint32)
        assert bitops.is_consecutive_mask(masks).tolist() == [True, False, True]


class TestFlipDirections:
    def test_one_to_zero(self):
        otz, zto = bitops.flip_directions(0xFFFFFFFF, 0xFFFF7BFF)
        assert (otz, zto) == (2, 0)

    def test_zero_to_one(self):
        otz, zto = bitops.flip_directions(0x00000000, 0x00000101)
        assert (otz, zto) == (0, 2)

    def test_mixed(self):
        # 0x58 -> 0xe6006358: 9 flips; bits set in expected that cleared...
        otz, zto = bitops.flip_directions(0x00000058, 0xE6006358)
        assert otz + zto == 9

    @given(WORDS, WORDS)
    def test_sum_is_total_flips(self, a, b):
        otz, zto = bitops.flip_directions(a, b)
        assert otz + zto == bitops.n_flipped_bits(a, b)

    @given(
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
    )
    def test_scalar_equals_array(self, a, b):
        otz, zto = bitops.flip_directions(np.array([a]), np.array([b]))
        for pair in ((a, b), (np.int64(a), np.int64(b)), (np.array(a), np.array(b))):
            result = bitops.flip_directions(*pair)
            assert all(type(n) is int for n in result)
            assert result == (int(otz[0]), int(zto[0]))


class TestGapsAndSpans:
    def test_adjacent_gaps_table1_max(self):
        # 0x00000058 ^ 0xe6006358 has the study's max distance of 11.
        gaps = bitops.adjacent_gaps(0x00000058 ^ 0xE6006358)
        assert gaps.max() == 11

    def test_gaps_empty_for_single_bit(self):
        assert bitops.adjacent_gaps(0b100).size == 0

    @given(WORDS)
    def test_span_equals_gap_sum(self, mask):
        assert bitops.bit_span(mask) == int(bitops.adjacent_gaps(mask).sum())


class TestMaskBuilders:
    @given(st.sets(st.integers(min_value=0, max_value=31), max_size=10))
    def test_make_mask_roundtrip(self, positions):
        mask = bitops.make_mask(positions)
        assert set(bitops.bit_positions(mask).tolist()) == positions

    def test_make_mask_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bitops.make_mask([32])

    @given(WORDS, WORDS)
    def test_apply_flips_involution(self, word, mask):
        once = bitops.apply_flips(word, mask)
        assert bitops.apply_flips(once, mask) == word

    def test_lowest_set_bit(self):
        assert bitops.lowest_set_bit(0) == -1
        assert bitops.lowest_set_bit(0b1000) == 3

    def test_format_word(self):
        assert bitops.format_word(0xFFFF7BFF) == "0xffff7bff"
