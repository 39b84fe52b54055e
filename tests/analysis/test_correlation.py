"""Correlation analysis tests."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.correlation import (
    _pearsonr,
    scanned_vs_errors,
    temperature_correlation,
    temperature_histogram,
)
from repro.core.records import ErrorRecord
from repro.logs.frame import ErrorFrame


def rec(t, temp, mask=0x1):
    return ErrorRecord(
        timestamp_hours=t,
        node="01-01",
        virtual_address=0,
        physical_page=0,
        expected=0xFFFFFFFF,
        actual=0xFFFFFFFF ^ mask,
        temperature_c=temp,
    )


class TestPearson:
    def test_perfect_anticorrelation(self):
        x = np.arange(100, dtype=float)
        result = scanned_vs_errors(x, -x)
        assert result.r == pytest.approx(-1.0)
        assert result.p_value < 1e-10
        assert not result.is_weak

    def test_independent_series_weak(self):
        rng = np.random.default_rng(0)
        result = scanned_vs_errors(rng.random(400), rng.random(400))
        assert result.is_weak

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            scanned_vs_errors(np.zeros(3), np.zeros(4))


def _frozen_cases():
    rng = np.random.default_rng(2016)
    x = rng.normal(size=425)
    y = -0.18 * x + rng.normal(size=425)
    return [
        (np.arange(12), [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8],
         0.4973872890601886, 0.09990321605591239),
        ([1, 2, 4], [2, 1, 7], 0.8824975032927695, 0.31172089906106903),
        (x, y, -0.15149467564049762, 0.0017359591696976585),
        ([1, 2], [3, 1], -1.0, 1.0),
        (np.arange(5.0), 3 * np.arange(5.0), 1.0, 0.0),
    ]


class TestPearsonR:
    """``_pearsonr`` against values frozen from ``scipy.stats.pearsonr``."""

    @pytest.mark.parametrize("x,y,r,p", _frozen_cases())
    def test_frozen_scipy_values(self, x, y, r, p):
        got_r, got_p = _pearsonr(np.asarray(x), np.asarray(y))
        assert got_r == pytest.approx(r, abs=1e-12)
        assert got_p == pytest.approx(p, rel=1e-9)

    def test_constant_input_is_nan(self):
        r, p = _pearsonr(np.ones(4), np.arange(4.0))
        assert math.isnan(r) and math.isnan(p)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            _pearsonr(np.ones(1), np.ones(1))

    def test_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for n in (3, 4, 5, 10, 50, 425, 6000):
            for seed in range(10):
                rng = np.random.default_rng([n, seed])
                x = rng.normal(size=n)
                y = rng.uniform(-0.5, 0.5) * x + rng.normal(size=n)
                want_r, want_p = stats.pearsonr(x, y)
                got_r, got_p = _pearsonr(x, y)
                assert got_r == pytest.approx(float(want_r), abs=1e-12)
                assert got_p == pytest.approx(float(want_p), rel=1e-9)


def test_analysis_and_claims_import_no_scipy():
    """The reproduction path runs without scipy, which only tests use."""
    probe = (
        "import json, sys\n"
        "import repro.analysis.report, repro.experiments.verify\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    child = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(child.stdout) == []


class TestTemperatureHistogram:
    def test_binning(self):
        frame = ErrorFrame.from_records(
            [rec(1.0, 33.0), rec(2.0, 34.0), rec(3.0, 71.0), rec(4.0, None)]
        )
        hist = temperature_histogram(frame)
        assert hist.n_without_temperature == 1
        assert hist.total().sum() == 3
        assert hist.fraction_in_range(30, 40) == pytest.approx(2 / 3)
        assert hist.fraction_in_range(60, 100) == pytest.approx(1 / 3)

    def test_multibit_only(self):
        frame = ErrorFrame.from_records(
            [rec(1.0, 33.0), rec(2.0, 35.0, mask=0x8400)]
        )
        hist = temperature_histogram(frame, multibit_only=True)
        assert hist.total().sum() == 1

    def test_empty_frame(self):
        hist = temperature_histogram(ErrorFrame.from_records([]))
        assert hist.total().sum() == 0


class TestTemperatureCorrelation:
    def test_insufficient_data(self):
        frame = ErrorFrame.from_records([rec(1.0, 33.0)])
        assert temperature_correlation(frame) is None

    def test_constant_series(self):
        frame = ErrorFrame.from_records([rec(float(i), 33.0) for i in range(5)])
        result = temperature_correlation(frame)
        assert result.r == 0.0

    def test_computes_r(self):
        records = [rec(float(i), 30.0 + i) for i in range(10)]
        records += [rec(20.0 + i, 60.0 + i, mask=0x8400) for i in range(5)]
        result = temperature_correlation(ErrorFrame.from_records(records))
        assert result is not None
        assert -1.0 <= result.r <= 1.0
