"""SECDED Hamming codec tests: exhaustive guarantees + honest multibit."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import EccError
from repro.ecc.hamming import SECDED_32, SECDED_64, DecodeStatus, HammingSecded

WORDS = st.integers(min_value=0, max_value=0xFFFFFFFF)


class TestGeometry:
    def test_39_32(self):
        assert SECDED_32.check_bits == 6
        assert SECDED_32.codeword_bits == 39

    def test_72_64(self):
        assert SECDED_64.check_bits == 7
        assert SECDED_64.codeword_bits == 72

    def test_data_too_wide_rejected(self):
        with pytest.raises(EccError):
            SECDED_32.encode(1 << 32)


class TestCleanPath:
    @given(WORDS)
    def test_roundtrip(self, data):
        cw = SECDED_32.encode(data)
        result = SECDED_32.decode(cw)
        assert result.status is DecodeStatus.CLEAN
        assert result.data == data

    @given(WORDS)
    def test_extract_data(self, data):
        assert SECDED_32.extract_data(SECDED_32.encode(data)) == data


class TestSingleError:
    def test_every_position_corrected(self):
        """SEC guarantee: all 39 single-bit codeword flips fixed."""
        data = 0xDEADBEEF
        cw = SECDED_32.encode(data)
        for bit in range(SECDED_32.codeword_bits):
            result = SECDED_32.decode(cw ^ (1 << bit))
            assert result.status is DecodeStatus.CORRECTED
            assert result.data == data
            assert result.corrected_position == bit

    @given(WORDS, st.integers(min_value=0, max_value=31))
    def test_data_bit_flip_corrected(self, data, bit):
        result = SECDED_32.decode_flips(data, 1 << bit)
        assert result.status is DecodeStatus.CORRECTED
        assert result.data == data


class TestDoubleError:
    def test_all_double_flips_detected(self):
        """DED guarantee: every pair of codeword flips is detected."""
        data = 0x12345678
        cw = SECDED_32.encode(data)
        for b1, b2 in itertools.combinations(range(SECDED_32.codeword_bits), 2):
            result = SECDED_32.decode(cw ^ (1 << b1) ^ (1 << b2))
            assert result.status is DecodeStatus.DETECTED, (b1, b2)

    def test_table1_doubles_detected(self):
        for expected, actual in [
            (0xFFFFFFFF, 0xFFFF7BFF),
            (0x000016BB, 0x000016B8),
            (0x000003C1, 0x000003C2),
        ]:
            result = SECDED_32.decode_flips(expected, expected ^ actual)
            assert result.status is DecodeStatus.DETECTED
            assert not result.is_sdc


class TestMultibitHonesty:
    def test_triple_flip_never_silently_correct(self):
        """3 flips: decoder may miscorrect or detect, never return clean
        original data (that would violate distance 4)."""
        random.seed(7)
        data = 0xCAFEBABE
        n = SECDED_32.codeword_bits
        cw = SECDED_32.encode(data)
        for _ in range(300):
            bits = random.sample(range(n), 3)
            mask = sum(1 << b for b in bits)
            result = SECDED_32.decode(cw ^ mask)
            assert result.status in (
                DecodeStatus.CORRECTED,
                DecodeStatus.DETECTED,
            )
            if result.status is DecodeStatus.CORRECTED:
                # Any "correction" of a triple restores the wrong data.
                assert result.data != data

    def test_decode_flips_refines_miscorrection(self):
        """decode_flips reports miscorrections as MISCORRECTED (SDC)."""
        random.seed(1)
        seen_sdc = False
        for _ in range(200):
            bits = random.sample(range(32), 3)
            mask = sum(1 << b for b in bits)
            result = SECDED_32.decode_flips(0xFFFFFFFF, mask)
            assert result.status in (
                DecodeStatus.MISCORRECTED,
                DecodeStatus.DETECTED,
                DecodeStatus.UNDETECTED,
            )
            seen_sdc = seen_sdc or result.is_sdc
        assert seen_sdc, "some triples must escape as SDC"

    def test_9bit_table1_pattern_is_sdc(self):
        """The study's 9-bit corruption escapes SECDED silently."""
        result = SECDED_32.decode_flips(0x00000058, 0x00000058 ^ 0xE6006358)
        assert result.is_sdc

    @settings(max_examples=50)
    @given(WORDS, st.integers(min_value=0, max_value=63))
    def test_secded_64_single_corrected(self, low, bit):
        data = low  # any 32-bit value is a valid 64-bit payload
        result = SECDED_64.decode_flips(data, 1 << bit)
        assert result.status is DecodeStatus.CORRECTED
        assert result.data == data


class TestSecded64FullWidth:
    """Every 64-bit payload, bit 63 included, round-trips and is protected."""

    @settings(max_examples=100)
    @example(data=1 << 63, pair=[0, 63])
    @given(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.lists(
            st.integers(min_value=0, max_value=63), min_size=2, max_size=2,
            unique=True,
        ),
    )
    def test_roundtrip_single_and_double_flips(self, data, pair):
        assert SECDED_64.extract_data(SECDED_64.encode(data)) == data
        for bit in range(64):
            result = SECDED_64.decode_flips(data, 1 << bit)
            assert result.status is DecodeStatus.CORRECTED
            assert result.data == data
        double = SECDED_64.decode_flips(data, (1 << pair[0]) | (1 << pair[1]))
        assert double.status is DecodeStatus.DETECTED


class TestValidation:
    def test_too_small_code_rejected(self):
        with pytest.raises(EccError):
            HammingSecded(2)

    def test_codeword_width_checked(self):
        with pytest.raises(EccError):
            SECDED_32.decode(1 << 40)
