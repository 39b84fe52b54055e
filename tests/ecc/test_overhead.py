"""ECC overhead/tradeoff tests."""

import pytest

from repro.core.events import MemoryError_
from repro.ecc.classify import compare_schemes
from repro.ecc.overhead import dominating_schemes, standard_schemes, tradeoff_table
from repro.faultinjection.catalogue import TABLE_I


def catalogue_errors():
    return [
        MemoryError_("x", 0.0, 0.0, 0, 0, p.expected, p.corrupted)
        for p in TABLE_I
        for _ in range(p.occurrences)
    ]


class TestSchemes:
    def test_overheads(self):
        by_name = {s.name: s for s in standard_schemes()}
        assert by_name["none"].overhead == 0.0
        assert by_name["secded (39,32)"].overhead == pytest.approx(7 / 32)
        assert by_name["secded (72,64)"].overhead == pytest.approx(8 / 64)
        assert by_name["chipkill x4 (32b)"].overhead == pytest.approx(12 / 32)

    def test_wider_words_cheaper(self):
        by_name = {s.name: s for s in standard_schemes()}
        assert (
            by_name["secded (72,64)"].overhead
            < by_name["secded (39,32)"].overhead
        )


class TestTradeoff:
    def test_catalogue_population(self):
        rows = {r.scheme: r for r in tradeoff_table(catalogue_errors())}
        assert rows["none"].sdc == 85
        assert rows["secded (39,32)"].sdc < 10
        assert rows["chipkill x4 (32b)"].sdc == 0
        # x8 symbols swallow most Table I masks whole.
        assert rows["chipkill x8 (64b)"].corrected >= 80

    def test_uncorrupted_word_rejected(self):
        """A word with no flipped bit has no outcome under any scheme."""
        population = catalogue_errors() + [MemoryError_("x", 0.0, 0.0, 0, 0, 5, 5)]
        with pytest.raises(ValueError, match="without corruption"):
            compare_schemes(population)
        with pytest.raises(ValueError, match="without corruption"):
            tradeoff_table(population)

    def test_totals_conserved(self):
        rows = tradeoff_table(catalogue_errors())
        for r in rows:
            assert r.total == 85

    def test_pareto_frontier(self):
        rows = tradeoff_table(catalogue_errors())
        frontier = dominating_schemes(rows)
        names = {r.scheme for r in frontier}
        # Free-but-unsafe and the best-protection points are on the
        # frontier; plain (39,32) SECDED is dominated by (72,64).
        assert "none" in names
        assert "secded (39,32)" not in names
        assert any("chipkill" in n for n in names)
