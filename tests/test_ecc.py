"""ECC what-if layer: SECDED and chipkill codec guarantees.

The paper's protection analysis (Sec III-C/D) rests on two code
guarantees — SECDED corrects every single-bit and detects every
double-bit error; chipkill corrects any single-symbol corruption — and
on the classifier applying them consistently to the observed Table I
patterns.  These tests pin both.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.events import MemoryError_
from repro.ecc.chipkill import CHIPKILL_32
from repro.ecc.classify import (
    classify_chipkill,
    classify_secded,
    classify_unprotected,
    compare_schemes,
)
from repro.ecc.hamming import SECDED_32, DecodeStatus, Outcome
from repro.faultinjection.catalogue import TABLE_I

DATA_WORDS = (0x00000000, 0xFFFFFFFF, 0xDEADBEEF, 0x000016BB)


def _error(expected: int, actual: int) -> MemoryError_:
    return MemoryError_(
        node="13-02",
        first_seen_hours=12.0,
        last_seen_hours=12.0,
        virtual_address=0x2AAB23D010,
        physical_page=0x7F2A000,
        expected=expected,
        actual=actual,
    )


def secded_outcome(expected: int, actual: int) -> Outcome:
    """The population classifier's SECDED outcome for one word."""
    return classify_secded([_error(expected, actual)]).outcomes[0].outcome


class TestSecdedGuarantees:
    @pytest.mark.parametrize("data", DATA_WORDS)
    def test_corrects_every_single_bit_position(self, data):
        for bit in range(32):
            mask = 1 << bit
            assert secded_outcome(data, data ^ mask) is Outcome.CORRECTED
            result = SECDED_32.decode_flips(data, mask)
            assert result.status is DecodeStatus.CORRECTED
            assert result.data == data  # correction restores the word

    def test_detects_every_double_bit_mask(self):
        data = 0xDEADBEEF
        outcomes = {
            secded_outcome(data, data ^ ((1 << i) | (1 << j)))
            for i, j in itertools.combinations(range(32), 2)
        }
        assert outcomes == {Outcome.DETECTED}  # all 496 masks

    def test_double_bit_codec_never_returns_corrected(self):
        data = 0x000016BB
        for i, j in [(0, 1), (0, 31), (7, 19), (30, 31)]:
            result = SECDED_32.decode_flips(data, (1 << i) | (1 << j))
            assert result.status is DecodeStatus.DETECTED

    def test_triple_bit_is_not_guaranteed(self):
        """>2 flipped bits fall through to honest replay (Sec III-C)."""
        data = 0xFFFFFFFF
        outcomes = {
            secded_outcome(data, data ^ mask)
            for mask in (0b111, 0b111 << 13, 0x80000003, 0x11100000)
        }
        assert Outcome.CORRECTED not in outcomes
        assert outcomes & {Outcome.DETECTED, Outcome.SDC}

    def test_zero_flip_rejected(self):
        with pytest.raises(ValueError):
            secded_outcome(0x1234, 0x1234)


class TestChipkillGuarantees:
    def test_corrects_any_single_symbol_corruption(self):
        data = 0xDEADBEEF
        b = CHIPKILL_32.spec.symbol_bits
        for symbol in range(CHIPKILL_32.spec.n_data_symbols):
            for pattern in range(1, 1 << b):  # every nonzero nibble flip
                mask = pattern << (b * symbol)
                result = CHIPKILL_32.decode_flips(data, mask)
                assert result.status is DecodeStatus.CORRECTED
                assert result.data == data

    def test_detects_double_symbol_corruption(self):
        data = 0x000016BB
        b = CHIPKILL_32.spec.symbol_bits
        for s1, s2 in [(0, 1), (0, 7), (3, 4), (6, 7)]:
            mask = (0x5 << (b * s1)) | (0xA << (b * s2))
            result = CHIPKILL_32.decode_flips(data, mask)
            assert result.status is DecodeStatus.DETECTED

    def test_symbols_touched_counts_nibbles(self):
        assert CHIPKILL_32.symbols_touched(0x0000000F) == 1
        assert CHIPKILL_32.symbols_touched(0x000000FF) == 2
        assert CHIPKILL_32.symbols_touched(0x80000001) == 2

    def test_chipkill_beats_secded_on_consecutive_multibit(self):
        """The paper's argument for stronger ECC: a whole-chip (nibble)
        failure is uncorrectable for SECDED but routine for chipkill."""
        data = 0xFFFFFFFF
        nibble = 0xF << 8
        assert secded_outcome(data, data ^ nibble) is not Outcome.CORRECTED
        assert CHIPKILL_32.decode_flips(data, nibble).status is DecodeStatus.CORRECTED


class TestClassifierAgreement:
    """classify_* population summaries vs direct per-word codec calls."""

    def test_secded_summary_matches_codec_on_table1(self):
        errors = [_error(p.expected, p.corrupted) for p in TABLE_I]
        summary = classify_secded(errors)
        assert summary.total == len(TABLE_I)
        for outcome, pattern in zip(summary.outcomes, TABLE_I):
            codec = SECDED_32.decode_flips(pattern.expected, pattern.flip_mask)
            assert outcome.outcome is codec.outcome

    def test_chipkill_summary_matches_codec_on_table1(self):
        errors = [_error(p.expected, p.corrupted) for p in TABLE_I]
        summary = classify_chipkill(errors)
        for outcome, pattern in zip(summary.outcomes, TABLE_I):
            codec = CHIPKILL_32.decode_flips(pattern.expected, pattern.flip_mask)
            assert outcome.outcome is codec.outcome

    def test_memory_error_properties_match_table1_metadata(self):
        for pattern in TABLE_I:
            err = _error(pattern.expected, pattern.corrupted)
            assert err.n_bits == pattern.n_bits
            assert err.flip_mask == pattern.flip_mask
            assert err.consecutive == pattern.consecutive
            assert err.is_multibit

    def test_unprotected_scheme_is_all_sdc(self):
        errors = [_error(p.expected, p.corrupted) for p in TABLE_I[:5]]
        summary = classify_unprotected(errors)
        assert summary.sdc == len(errors)
        assert summary.corrected == 0 and summary.detected == 0
        assert summary.sdc_fraction == 1.0

    def test_compare_schemes_orders_protection_strength(self, quick_analysis):
        schemes = compare_schemes(quick_analysis.errors[:500])
        assert set(schemes) == {"none", "secded", "chipkill"}
        assert schemes["none"].sdc_fraction == 1.0
        assert schemes["secded"].sdc_fraction < schemes["none"].sdc_fraction
        assert schemes["chipkill"].sdc <= schemes["secded"].sdc
