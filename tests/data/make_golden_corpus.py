"""Regenerate the golden log corpus under ``tests/data/golden_logs``.

Run from the repository root (the record-object writer lives in
``tests/logs/record_reference.py``)::

    PYTHONPATH=src:. python tests/data/make_golden_corpus.py

The corpus is deterministic (fixed seed) and small by design: four nodes
exercising every record kind, a gzipped node file, repeat-compressed
error bursts, and one dominant node (``63-15``) contributing >98% of raw
error lines so the Sec III-B outlier-removal path fires.  The expected
headline stats are frozen in ``tests/logs/test_golden_corpus.py`` — if
you regenerate the corpus, re-freeze them deliberately.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.records import (
    AllocFailRecord,
    EndRecord,
    ErrorRecord,
    StartRecord,
)

from tests.logs.record_reference import LogArchive

OUT = Path(__file__).parent / "golden_logs"


def build_archive() -> LogArchive:
    rng = np.random.default_rng(20160716)
    archive = LogArchive()

    def temp(base: float) -> float:
        return round(base + float(rng.uniform(-2.0, 2.0)), 2)

    # 01-01: a weak bit firing in three separate bursts (distinct errors),
    # each burst re-detected for a few iterations (same fault, merged).
    archive.append(StartRecord(0.0, "01-01", 3072, temp(34.0)))
    for burst_start in (12.0, 96.5, 201.25):
        for i in range(3):
            archive.append(
                ErrorRecord(
                    timestamp_hours=round(burst_start + i * 0.01, 9),
                    node="01-01",
                    virtual_address=0x3000_0000 + 4 * 1977,
                    physical_page=0x8_0000 + 1977 // 1024,
                    expected=0xFFFFFFFF,
                    actual=0xFFFFFFFF ^ (1 << 11),
                    temperature_c=temp(36.0),
                    repeat_count=int(rng.integers(2, 40)),
                )
            )
    archive.append(EndRecord(240.0, "01-01", temp(33.0)))

    # 01-02 (stored gzipped): sparse background errors, distinct cells.
    archive.append(StartRecord(1.5, "01-02", 2048, None))
    for k, t in enumerate((30.0, 77.7, 142.25, 209.0)):
        word = int(rng.integers(0, 1 << 18))
        archive.append(
            ErrorRecord(
                timestamp_hours=t,
                node="01-02",
                virtual_address=0x3000_0000 + 4 * word,
                physical_page=0x8_0000 + word // 1024,
                expected=0x0000_0000 if k % 2 else 0xFFFFFFFF,
                actual=(0x0000_0000 if k % 2 else 0xFFFFFFFF) ^ (1 << (k * 7 % 32)),
                temperature_c=None if k == 2 else temp(31.0),
                repeat_count=1,
            )
        )
    archive.append(EndRecord(239.0, "01-02", temp(30.0)))

    # 02-07: scanner never got memory; one alloc failure, then a short
    # truncated session (START with no END — zero monitored hours).
    archive.append(AllocFailRecord(5.0, "02-07"))
    archive.append(StartRecord(48.0, "02-07", 512, temp(29.0)))

    # 63-15: the to-be-replaced faulty node. A stuck cell re-logs the
    # same corruption every verify pass, repeat-compressed into a few
    # records whose expanded raw-line count dwarfs everything else.
    archive.append(StartRecord(0.25, "63-15", 3072, temp(45.0)))
    raw_line_budget = 120_000
    t = 6.0
    while raw_line_budget > 0:
        rep = int(min(raw_line_budget, rng.integers(8_000, 20_000)))
        archive.append(
            ErrorRecord(
                timestamp_hours=round(t, 9),
                node="63-15",
                virtual_address=0x3000_0000 + 4 * 333_333,
                physical_page=0x8_0000 + 333_333 // 1024,
                expected=0x55555555,
                actual=0x5555D555,
                temperature_c=temp(51.0),
                repeat_count=rep,
            )
        )
        raw_line_budget -= rep
        t += 17.3
    archive.append(EndRecord(238.5, "63-15", temp(48.0)))

    archive.sort()
    return archive


def main() -> None:
    archive = build_archive()
    OUT.mkdir(parents=True, exist_ok=True)
    for stale in list(OUT.glob("*.log")) + list(OUT.glob("*.log.gz")):
        stale.unlink()
    # One node gzipped: the reader must interleave .log and .log.gz files
    # in node order (regression for the split-glob ordering bug).
    gz_only = LogArchive()
    gz_only.extend(archive.records("01-02"))
    gz_only.write_directory(OUT, compress=True)
    rest = LogArchive()
    for node in archive.nodes:
        if node != "01-02":
            rest.extend(archive.records(node))
    rest.write_directory(OUT)
    print(f"wrote {len(archive.nodes)} nodes to {OUT}")
    print(f"n_records={archive.n_records()}")
    print(f"n_raw_error_lines={archive.n_raw_error_lines()}")


if __name__ == "__main__":
    main()
