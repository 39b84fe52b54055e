"""Daily activity / idle-window generation tests."""

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.environment.calendar import AcademicCalendar
from repro.scheduler.jobs import ActivityConfig, DailyActivityGenerator


@pytest.fixture(scope="module")
def generator():
    return DailyActivityGenerator(AcademicCalendar(), ActivityConfig())


def idle_windows(generator, rng):
    """One node's ``(starts, ends)`` (a one-node block)."""
    starts, ends, bounds = generator.idle_windows([rng])
    assert bounds.tolist() == [0, starts.size]
    return starts, ends


class TestWindows:
    def test_windows_within_days(self, generator):
        rng = np.random.default_rng(0)
        starts, ends = idle_windows(generator, rng)
        assert starts.size
        assert np.all(starts >= 0.0)
        assert np.all(starts < ends)
        assert np.all(ends <= 425 * 24.0 + 1e-9)

    def test_windows_sorted_and_disjoint(self, generator):
        rng = np.random.default_rng(1)
        starts, ends = idle_windows(generator, rng)
        assert np.all(ends[:-1] <= starts[1:] + 1e-9)

    def test_total_idle_tracks_calendar(self, generator):
        rng = np.random.default_rng(2)
        starts, ends = idle_windows(generator, rng)
        total = float((ends - starts).sum())
        expected = generator.expected_idle_hours()
        assert abs(total - expected) / expected < 0.25

    def test_vacation_days_fully_idle_sometimes(self, generator):
        """Deep-vacation zero-job days span a full midnight-to-midnight."""
        rng = np.random.default_rng(3)
        starts, ends = idle_windows(generator, rng)
        full_days = starts[ends - starts >= 23.999]
        assert full_days.size, "expected some fully idle vacation days"
        # All in vacation periods (Aug-Sep or Dec-Jan).
        for start in full_days:
            day = int(start // 24)
            assert generator.calendar.idle_fraction(day) > 0.5

    def test_deterministic_given_rng(self, generator):
        a = idle_windows(generator, np.random.default_rng(9))
        b = idle_windows(generator, np.random.default_rng(9))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_empty_block(self, generator):
        starts, ends, bounds = generator.idle_windows([])
        assert starts.size == ends.size == 0
        assert bounds.tolist() == [0]

    def test_invalid_activity_rejected(self):
        with pytest.raises(ConfigurationError):
            DailyActivityGenerator(AcademicCalendar(), ActivityConfig(max_windows=0))

    def test_short_study(self):
        gen = DailyActivityGenerator(
            AcademicCalendar(), ActivityConfig(), n_days=10
        )
        _, ends = idle_windows(gen, np.random.default_rng(0))
        assert np.all(ends <= 240.0 + 1e-9)
