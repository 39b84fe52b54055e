"""Golden-corpus regression tests.

``tests/data/golden_logs`` is a small frozen corpus (regenerate with
``tests/data/make_golden_corpus.py``) covering every record kind, a
gzipped node file, repeat-compressed bursts, and a dominant faulty node.
The headline stats below are frozen numbers: both the record-object
reference path (``record_reference.py``) and the columnar path must
reproduce them — and each other — exactly.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.extraction import extract
from repro.logs.columnar import ColumnarArchive, format_chunk

from .record_reference import LogArchive, to_records
from .test_columnar import assert_frames_identical

GOLDEN = Path(__file__).parents[1] / "data" / "golden_logs"

#: Frozen headline stats of the corpus.  If make_golden_corpus.py is
#: rerun with different content, re-freeze these deliberately.
EXPECTED = {
    "nodes": ["01-01", "01-02", "02-07", "63-15"],
    "n_records": 31,
    "n_error_records": 23,
    "n_raw_lines": 120_212,
    "n_errors": 7,
    "removed_node": "63-15",
    "removed_node_raw_lines": 120_000,
    "removed_node_errors": 10,
}


@pytest.fixture(scope="module")
def text_archive() -> LogArchive:
    return LogArchive.read_directory(GOLDEN)


@pytest.fixture(scope="module")
def columnar_archive() -> ColumnarArchive:
    return ColumnarArchive.read_text_directory(GOLDEN)


class TestGoldenText:
    def test_headline_stats(self, text_archive):
        assert text_archive.nodes == EXPECTED["nodes"]
        assert text_archive.n_records() == EXPECTED["n_records"]
        assert text_archive.n_raw_error_lines() == EXPECTED["n_raw_lines"]

    def test_extraction_stats(self, text_archive):
        result = extract(text_archive.error_frame().sorted_by_time())
        assert result.n_raw_lines == EXPECTED["n_raw_lines"]
        assert result.n_raw_records == EXPECTED["n_error_records"]
        assert result.n_errors == EXPECTED["n_errors"]
        assert result.removed_node == EXPECTED["removed_node"]
        assert result.removed_node_raw_lines == EXPECTED["removed_node_raw_lines"]
        assert result.removed_node_errors == EXPECTED["removed_node_errors"]


class TestGoldenColumnar:
    def test_headline_stats(self, columnar_archive):
        assert columnar_archive.nodes == EXPECTED["nodes"]
        assert columnar_archive.n_records() == EXPECTED["n_records"]
        assert columnar_archive.n_errors() == EXPECTED["n_error_records"]
        assert columnar_archive.n_raw_error_lines() == EXPECTED["n_raw_lines"]

    def test_extraction_stats(self, columnar_archive):
        result = extract(columnar_archive.error_frame().sorted_by_time())
        assert result.n_raw_lines == EXPECTED["n_raw_lines"]
        assert result.n_raw_records == EXPECTED["n_error_records"]
        assert result.n_errors == EXPECTED["n_errors"]
        assert result.removed_node == EXPECTED["removed_node"]
        assert result.removed_node_raw_lines == EXPECTED["removed_node_raw_lines"]
        assert result.removed_node_errors == EXPECTED["removed_node_errors"]


class TestPathsAgree:
    def test_raw_frames_bit_identical(self, text_archive, columnar_archive):
        assert_frames_identical(
            text_archive.error_frame(), columnar_archive.error_frame()
        )

    def test_records_identical(self, text_archive, columnar_archive):
        for node in text_archive.nodes:
            assert to_records(columnar_archive.columns(node)) == text_archive.records(node)

    def test_text_rendering_identical(self, text_archive, columnar_archive, tmp_path):
        text_archive.write_directory(tmp_path / "records")
        for node in text_archive.nodes:
            reference = (tmp_path / "records" / f"{node}.log").read_text(encoding="ascii")
            assert format_chunk(columnar_archive.columns(node)) == reference

    def test_extraction_errors_identical(self, text_archive, columnar_archive):
        via_text = extract(text_archive.error_frame().sorted_by_time())
        via_columnar = extract(columnar_archive.error_frame().sorted_by_time())
        assert via_columnar.errors == via_text.errors

    def test_binary_roundtrip_preserves_corpus(self, columnar_archive, tmp_path):
        manifest = columnar_archive.save(tmp_path / "col")
        assert manifest["n_records"] == EXPECTED["n_records"]
        assert manifest["n_raw_lines"] == EXPECTED["n_raw_lines"]
        loaded = ColumnarArchive.load(tmp_path / "col")
        assert loaded.nodes == EXPECTED["nodes"]
        assert_frames_identical(
            loaded.error_frame(), columnar_archive.error_frame()
        )
