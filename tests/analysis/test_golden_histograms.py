"""Frozen golden-corpus histograms (Figs 5, 7/8 and 10).

The golden corpus's temperature, hourly and daily histograms are
hard-coded below, so a drift in the analysis functions or in the
columnar ingest that feeds them fails here even when every other path
drifts with it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import correlation, temporal
from repro.logs.columnar import ColumnarArchive

GOLDEN = Path(__file__).parents[1] / "data" / "golden_logs"

#: Frozen golden-corpus outputs (see tests/data/make_golden_corpus.py).
GOLDEN_TEMP_COUNTS = {
    1: [0, 0, 0, 1, 2, 2, 5, 2, 0, 0, 0, 5, 2, 3, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
}
GOLDEN_N_WITHOUT_TEMP = 1
GOLDEN_HOURLY = {
    1: [4, 0, 0, 1, 0, 1, 2, 1, 0, 4, 0, 0, 3, 1, 0, 0,
        1, 2, 0, 0, 1, 0, 1, 1],
}
GOLDEN_DAILY_10 = {1: [5, 2, 1, 3, 4, 2, 2, 0, 4, 0]}


@pytest.fixture(scope="module")
def golden_frame():
    return ColumnarArchive.read_text_directory(GOLDEN).error_frame()


class TestFrozenGoldens:
    def test_temperature(self, golden_frame):
        hist = correlation.temperature_histogram(golden_frame)
        assert {k: v.tolist() for k, v in hist.counts.items()} == (
            GOLDEN_TEMP_COUNTS
        )
        assert hist.n_without_temperature == GOLDEN_N_WITHOUT_TEMP

    def test_hourly(self, golden_frame):
        hist = temporal.hourly_histogram(golden_frame)
        assert {k: v.tolist() for k, v in hist.items()} == GOLDEN_HOURLY

    def test_daily(self, golden_frame):
        hist = temporal.daily_histogram(golden_frame, 10)
        assert {k: v.tolist() for k, v in hist.items()} == GOLDEN_DAILY_10
