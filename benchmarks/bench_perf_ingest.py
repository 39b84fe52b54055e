"""Performance bench: streaming columnar log ingestion.

Generates a paper-scale synthetic archive (many nodes, repr-precision
timestamps, repeat-compressed bursts, START/END session framing, one
gzipped node) and times three ingest routes to an :class:`ErrorFrame`:

* the record-object reference path (``LogArchive.read_directory`` +
  ``ErrorFrame.from_records``, from ``tests/logs/record_reference.py``;
  run from the repository root so ``tests`` imports),
* the streaming columnar parser (``ColumnarArchive.read_text_directory``),
* reloading the saved binary archive (``ColumnarArchive.load``).

The acceptance gate asserts the columnar parser is >= 5x faster than
the text reference on the same corpus while producing a bit-identical
frame and identical extraction results.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis.extraction import extract
from repro.logs.columnar import ColumnarArchive
from repro.logs.frame import ErrorFrame
from tests.logs.record_reference import LogArchive

#: ISSUE acceptance target for columnar over text ingest.
SPEEDUP_TARGET = 5.0

N_NODES = 24
ERRORS_PER_NODE = 8_000


def _write_corpus(root) -> int:
    """A synthetic archive shaped like the paper's: per-node log files,
    dominated by canonical ERROR lines, with session framing and a mix
    of temperatures/repeat counts.  Returns the total error-record count.
    """
    import gzip

    rng = np.random.default_rng(2016)
    for k in range(N_NODES):
        node = f"{k // 16:02d}-{k % 16:02d}"
        timestamps = np.cumsum(rng.uniform(0.001, 0.02, ERRORS_PER_NODE))
        words = rng.integers(0, 1 << 18, ERRORS_PER_NODE)
        expected = rng.integers(0, 2**32, ERRORS_PER_NODE, dtype=np.uint64)
        flips = rng.integers(0, 32, ERRORS_PER_NODE)
        temps = rng.uniform(20.0, 60.0, ERRORS_PER_NODE)
        reps = rng.integers(1, 50, ERRORS_PER_NODE)
        lines = [f"START|t=0.0|node={node}|mb=3072|temp=30.00\n"]
        for i in range(ERRORS_PER_NODE):
            exp = int(expected[i])
            act = exp ^ (1 << int(flips[i]))
            word = int(words[i])
            temp = "na" if i % 97 == 0 else f"{float(temps[i]):.2f}"
            lines.append(
                f"ERROR|t={float(timestamps[i])!r}|node={node}"
                f"|va=0x{4 * word:x}|pp=0x{word // 1024:x}"
                f"|exp=0x{exp:08x}|act=0x{act:08x}"
                f"|temp={temp}|rep={int(reps[i])}\n"
            )
        lines.append(f"END|t=200.0|node={node}|temp=na\n")
        body = "".join(lines)
        if k == 0:  # one gzipped node, as real archives hold
            with gzip.open(root / f"{node}.log.gz", "wt", encoding="ascii") as fh:
                fh.write(body)
        else:
            (root / f"{node}.log").write_text(body, encoding="ascii")
    return N_NODES * ERRORS_PER_NODE


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("ingest-corpus")
    _write_corpus(root)
    return root


def _text_ingest(root) -> ErrorFrame:
    archive = LogArchive.read_directory(root)
    return ErrorFrame.from_records(archive.error_records())


def _columnar_ingest(root) -> ErrorFrame:
    return ColumnarArchive.read_text_directory(root).error_frame()


def _best_of(fn, rounds: int = 3) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_perf_text_reference(benchmark, corpus_dir):
    """Baseline: record-object parse of the whole corpus."""
    frame = benchmark.pedantic(
        _text_ingest, args=(corpus_dir,), rounds=1, iterations=1
    )
    assert len(frame) == N_NODES * ERRORS_PER_NODE


def test_perf_columnar_ingest(benchmark, corpus_dir):
    """Streaming columnar parse of the same corpus."""
    frame = benchmark.pedantic(
        _columnar_ingest, args=(corpus_dir,), rounds=1, iterations=1
    )
    assert len(frame) == N_NODES * ERRORS_PER_NODE


def test_perf_binary_reload(benchmark, corpus_dir, tmp_path):
    """Reloading the saved binary archive (checksums verified)."""
    ColumnarArchive.read_text_directory(corpus_dir).save(tmp_path / "col")
    frame = benchmark.pedantic(
        lambda: ColumnarArchive.load(tmp_path / "col").error_frame(),
        rounds=1,
        iterations=1,
    )
    assert len(frame) == N_NODES * ERRORS_PER_NODE


def test_perf_ingest_speedup(corpus_dir):
    """ISSUE acceptance: columnar ingest >= 5x faster than the text
    reference path, with bit-identical frames and extraction results."""
    text_s, text_frame = _best_of(lambda: _text_ingest(corpus_dir))
    col_s, col_frame = _best_of(lambda: _columnar_ingest(corpus_dir))

    # Equivalence first: speed means nothing if the columns drift.
    assert col_frame.node_names == text_frame.node_names
    assert np.array_equal(col_frame.time_hours, text_frame.time_hours)
    assert np.array_equal(col_frame.node_code, text_frame.node_code)
    assert np.array_equal(col_frame.virtual_address, text_frame.virtual_address)
    assert np.array_equal(col_frame.physical_page, text_frame.physical_page)
    assert np.array_equal(col_frame.expected, text_frame.expected)
    assert np.array_equal(col_frame.actual, text_frame.actual)
    assert np.array_equal(col_frame.repeat_count, text_frame.repeat_count)
    assert np.array_equal(
        col_frame.temperature_c, text_frame.temperature_c, equal_nan=True
    )
    via_text = extract(text_frame.sorted_by_time())
    via_columnar = extract(col_frame.sorted_by_time())
    assert via_columnar.errors == via_text.errors
    assert via_columnar.n_raw_lines == via_text.n_raw_lines

    speedup = text_s / col_s
    assert speedup >= SPEEDUP_TARGET, (
        f"expected >= {SPEEDUP_TARGET:.0f}x columnar ingest speedup, got "
        f"{speedup:.2f}x ({text_s:.2f}s text vs {col_s:.2f}s columnar)"
    )
