"""Error-population classification tests (secded kernel + schemes)."""

import numpy as np
import pytest

from repro.core.events import MemoryError_
from repro.ecc import (
    Outcome,
    classify_chipkill,
    classify_secded,
    classify_unprotected,
    compare_schemes,
)
from repro.kernels.ecc import secded_classify


def err(expected, actual, node="01-01", t=1.0):
    return MemoryError_(
        node=node,
        first_seen_hours=t,
        last_seen_hours=t,
        virtual_address=0,
        physical_page=0,
        expected=expected,
        actual=actual,
    )


def secded_outcome(expected, actual):
    """The SECDED outcome of one word through the dispatched kernel."""
    codes = secded_classify(
        np.array([expected], dtype=np.uint64), np.array([actual], dtype=np.uint64)
    )
    return Outcome(codes[0])


class TestClassifyWord:
    def test_single_corrected(self):
        assert secded_outcome(0xFFFFFFFF, 0xFFFFFFFE) is Outcome.CORRECTED

    def test_double_detected(self):
        assert secded_outcome(0xFFFFFFFF, 0xFFFF7BFF) is Outcome.DETECTED

    def test_nine_bit_sdc(self):
        assert secded_outcome(0x00000058, 0xE6006358) is Outcome.SDC

    def test_no_corruption_rejected(self):
        with pytest.raises(ValueError):
            secded_outcome(5, 5)


class TestClassifyBulk:
    def test_mixed_population(self):
        expected = np.array([0xFFFFFFFF, 0xFFFFFFFF, 0x58], dtype=np.uint64)
        actual = np.array([0xFFFFFFFE, 0xFFFF7BFF, 0xE6006358], dtype=np.uint64)
        out = secded_classify(expected, actual)
        assert out[0] == Outcome.CORRECTED
        assert out[1] == Outcome.DETECTED
        assert out[2] == Outcome.SDC

    def test_rejects_clean_rows(self):
        with pytest.raises(ValueError):
            secded_classify(np.array([1]), np.array([1]))


class TestSchemes:
    def test_secded_summary_counts(self):
        errors = [
            err(0xFFFFFFFF, 0xFFFFFFFE),
            err(0xFFFFFFFF, 0xFFFF7BFF),
            err(0x00000058, 0xE6006358),
        ]
        summary = classify_secded(errors)
        assert summary.corrected == 1
        assert summary.detected == 1
        assert summary.sdc == 1
        assert summary.total == 3
        assert summary.sdc_fraction == pytest.approx(1 / 3)

    def test_unprotected_everything_sdc(self):
        errors = [err(0xFFFFFFFF, 0xFFFFFFFE)]
        summary = classify_unprotected(errors)
        assert summary.sdc == 1

    def test_chipkill_beats_secded_on_study_patterns(self):
        """Over the Table I catalogue, chipkill leaves fewer SDC."""
        from repro.faultinjection.catalogue import TABLE_I

        errors = [err(p.expected, p.corrupted) for p in TABLE_I]
        schemes = compare_schemes(errors)
        assert schemes["chipkill"].sdc <= schemes["secded"].sdc
        assert schemes["none"].sdc == len(errors)

    def test_chipkill_corrects_single_bit(self):
        summary = classify_chipkill([err(0xFFFFFFFF, 0xFFFFFFFE)])
        assert summary.corrected == 1
