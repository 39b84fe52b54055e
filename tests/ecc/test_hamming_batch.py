"""Batch SECDED: the dispatched kernels agree bit for bit with the codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import MemoryError_
from repro.ecc.classify import ProtectionSummary
from repro.ecc.hamming import SECDED_32, Outcome
from repro.kernels.ecc import secded_classify, secded_syndromes

CORRECTED, DETECTED, SDC = Outcome.CORRECTED, Outcome.DETECTED, Outcome.SDC

WORDS = st.integers(min_value=0, max_value=0xFFFFFFFF)


def scalar_code(expected: int, mask: int) -> int:
    return SECDED_32.decode_flips(expected, mask).outcome


class TestSyndromes:
    @given(WORDS)
    @settings(max_examples=100)
    def test_matches_scalar_checks(self, data):
        batch = secded_syndromes(np.array([data], dtype=np.uint64))[0]
        bits = SECDED_32._data_to_codeword_bits(data)
        scalar = SECDED_32._compute_checks(bits)
        assert batch.tolist() == [int(x) for x in scalar]


class TestEquivalence:
    def test_single_bit_corrected(self):
        expected = np.full(32, 0xDEADBEEF, dtype=np.uint64)
        actual = expected ^ (np.uint64(1) << np.arange(32, dtype=np.uint64))
        codes = secded_classify(expected, actual)
        assert (codes == CORRECTED).all()

    def test_double_bit_detected(self):
        rng = np.random.default_rng(0)
        expected = rng.integers(0, 2**32, size=300, dtype=np.uint64)
        b1 = rng.integers(0, 32, size=300, dtype=np.uint64)
        b2 = (b1 + 1 + rng.integers(0, 31, size=300, dtype=np.uint64)) % np.uint64(32)
        masks = (np.uint64(1) << b1) | (np.uint64(1) << b2)
        codes = secded_classify(expected, expected ^ masks)
        assert (codes == DETECTED).all()

    @settings(max_examples=200, deadline=None)
    @given(WORDS, st.sets(st.integers(0, 31), min_size=1, max_size=9))
    def test_matches_scalar_for_any_pattern(self, data, bits):
        mask = 0
        for b in bits:
            mask |= 1 << b
        batch = secded_classify(
            np.array([data], dtype=np.uint64),
            np.array([data ^ mask], dtype=np.uint64),
        )[0]
        assert int(batch) == scalar_code(data, mask)

    def test_table1_population(self):
        from repro.faultinjection.catalogue import TABLE_I

        expected = np.array([p.expected for p in TABLE_I], dtype=np.uint64)
        actual = np.array([p.corrupted for p in TABLE_I], dtype=np.uint64)
        codes = secded_classify(expected, actual)
        for code, p in zip(codes, TABLE_I):
            assert int(code) == scalar_code(p.expected, p.expected ^ p.corrupted)

    def test_rejects_clean_rows(self):
        with pytest.raises(ValueError):
            secded_classify(np.array([1], dtype=np.uint64), np.array([1], dtype=np.uint64))


class TestSummary:
    def test_counts(self):
        codes = np.array([CORRECTED, CORRECTED, DETECTED, SDC], dtype=np.int8)
        errors = [MemoryError_("x", 0.0, 0.0, 0, 0, 0xFF, 0xFE)] * 4
        s = ProtectionSummary("secded-32", errors, codes)
        assert (s.corrected, s.detected, s.sdc) == (2, 1, 1)
        assert s.total == 4
