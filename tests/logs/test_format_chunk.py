"""The column-wise text writer: :func:`repro.logs.columnar.format_chunk`.

It must write, byte for byte, what ``format_record`` writes for each
row's record object (the reference in ``record_reference.py``), and
:func:`~repro.logs.columnar.parse_chunk` must read it back to the same
columns.  ``ColumnarArchive.write_text_directory`` writes through it and
builds no record object.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ColumnarFormatError
from repro.logs import columnar
from repro.logs.columnar import (
    KIND_ALLOC_FAIL,
    KIND_END,
    KIND_ERROR,
    KIND_START,
    SHARD_COLUMNS,
    ColumnarArchive,
    RecordColumns,
    format_chunk,
    parse_chunk,
)

from .record_reference import LogArchive, format_lines

INT64 = st.integers(-(2**63), 2**63 - 1)
WORD = st.integers(0, 2**32 - 1)
NAME = st.text("0123456789abcdefxyz-_.", min_size=1, max_size=8)
#: Two-decimal temperatures print and parse back exactly.
CENTS_TEMP = st.integers(-10**6, 10**6).map(lambda c: c / 100)
ANY_TEMP = st.floats(allow_nan=False, width=64)
TIME = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def rows(draw, temp=ANY_TEMP):
    """One row: ``(kind, t, temp, mb, va, pp, expected, actual, rep)``.

    Fields a kind does not carry hold zeros (NaN temperature on
    ALLOC_FAIL), as the parser leaves them; ERROR rows hold
    ``expected != actual`` and ``rep >= 1``, as every ERROR record does.
    """
    kind = draw(st.sampled_from((KIND_START, KIND_ERROR, KIND_END, KIND_ALLOC_FAIL)))
    t = draw(TIME)
    logged = kind != KIND_ALLOC_FAIL and draw(st.booleans())
    tc = draw(temp) if logged else np.nan
    if kind == KIND_START:
        return kind, t, tc, draw(INT64), 0, 0, 0, 0, 0
    if kind == KIND_ERROR:
        expected = draw(WORD)
        actual = draw(WORD.filter(lambda w: w != expected))
        rep = draw(st.integers(1, 2**63 - 1))
        return kind, t, tc, 0, draw(INT64), draw(INT64), expected, actual, rep
    return kind, t, tc, 0, 0, 0, 0, 0, 0


@st.composite
def record_columns(draw, temp=ANY_TEMP, max_rows=40):
    """Columns over a few nodes, mixed row by row, names in first-use order."""
    names = draw(st.lists(NAME, min_size=1, max_size=4, unique=True))
    body = draw(st.lists(st.tuples(rows(temp), st.integers(0, len(names) - 1)), max_size=max_rows))
    # Intern the drawn nodes in order of first use, as the parser does.
    order: list[int] = []
    for _, node in body:
        if node not in order:
            order.append(node)
    fields = list(zip(*(row for row, _ in body))) or [()] * 9
    return RecordColumns(
        **{
            name: np.array(values, dtype=dtype)
            for (name, dtype), values in zip(SHARD_COLUMNS.items(), fields)
        },
        node_code=np.array([order.index(node) for _, node in body], dtype=np.int32),
        node_names=[names[node] for node in order],
    )


class TestFormatChunk:
    @settings(max_examples=200, deadline=None)
    @given(cols=record_columns())
    def test_matches_format_record_row_by_row(self, cols):
        assert format_chunk(cols) == format_lines(cols)

    @settings(max_examples=200, deadline=None)
    @given(cols=record_columns(temp=CENTS_TEMP))
    def test_parse_chunk_reads_it_back(self, cols):
        back = parse_chunk(format_chunk(cols))
        assert back.node_names == cols.node_names
        for name in [*SHARD_COLUMNS, "node_code"]:
            a, b = getattr(back, name), getattr(cols, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name

    @settings(max_examples=50, deadline=None)
    @given(cols=record_columns(), bad=st.integers(4, 255), data=st.data())
    def test_unknown_kind_code_raises_like_the_reference(self, cols, bad, data):
        if not len(cols):
            return
        cols.kind[data.draw(st.integers(0, len(cols) - 1))] = bad
        with pytest.raises(ColumnarFormatError, match=f"unknown kind code {bad}"):
            format_chunk(cols)
        with pytest.raises(ColumnarFormatError, match=f"unknown kind code {bad}"):
            format_lines(cols)

    def test_a_bulk_length_error_run_round_trips(self):
        """A run long enough for the parser's bulk path, NaN and logged
        temperatures interleaved."""
        n = 4 * columnar._ERROR_RUN_MIN
        idx = np.arange(n)
        cols = RecordColumns(
            kind=np.full(n, KIND_ERROR, dtype=np.uint8),
            t=1.0 + idx / 7.0,
            temp=np.where(idx % 3 == 0, np.nan, 30.0 + idx / 4.0),
            mb=np.zeros(n, dtype=np.int64),
            va=idx * 4096,
            pp=idx // 2,
            expected=np.full(n, 0xFFFFFFFF, dtype=np.uint32),
            actual=(0xFFFFFFFF ^ (1 << idx % 32)).astype(np.uint32),
            rep=1 + idx % 5,
            node_code=np.zeros(n, dtype=np.int32),
            node_names=["21-09"],
        )
        text = format_chunk(cols)
        assert text == format_lines(cols)
        back = parse_chunk(text)
        for name in SHARD_COLUMNS:
            assert getattr(back, name).tobytes() == getattr(cols, name).tobytes(), name

    def test_percent_in_a_node_name_is_literal(self):
        cols = parse_chunk("ALLOC_FAIL|t=1.5|node=a%sb%%\n")
        assert cols.node_names == ["a%sb%%"]
        assert format_chunk(cols) == "ALLOC_FAIL|t=1.5|node=a%sb%%\n"

    def test_empty_columns_write_nothing(self):
        assert format_chunk(RecordColumns.empty()) == ""


def _directory_digest(directory) -> tuple[str, int, int]:
    """``(cd D && sha256sum *.log | sha256sum)``, file count, byte count."""
    files = sorted(directory.glob("*.log"))
    listing = "".join(
        f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {f.name}\n" for f in files
    )
    return (
        hashlib.sha256(listing.encode()).hexdigest(),
        len(files),
        sum(f.stat().st_size for f in files),
    )


#: ``repro --quick campaign --out`` (seed 20160213): 19 files, 4,285,185 bytes.
QUICK_DIGEST = (
    "2a210d7dce9d13e6b547fbaa3f170fd6a7e030c128dedb3b1945e9204c898c42",
    19,
    4_285_185,
)


class TestWriteTextDirectory:
    def test_quick_campaign_text_digest(self, quick_campaign, tmp_path):
        quick_campaign.archive.write_text_directory(tmp_path)
        assert _directory_digest(tmp_path) == QUICK_DIGEST

    def test_builds_no_record_objects(self, quick_campaign, tmp_path, monkeypatch):
        def no_records(*args, **kwargs):
            raise AssertionError("the text writer built a record object")

        for name in ("StartRecord", "ErrorRecord", "EndRecord", "AllocFailRecord"):
            monkeypatch.setattr(columnar, name, no_records)
        quick_campaign.archive.write_text_directory(tmp_path)
        assert _directory_digest(tmp_path) == QUICK_DIGEST

    def test_matches_the_reference_writer(self, quick_campaign, tmp_path):
        archive = quick_campaign.archive
        archive.write_text_directory(tmp_path / "columns")
        LogArchive.of(archive).write_directory(tmp_path / "records")
        assert _directory_digest(tmp_path / "columns") == _directory_digest(
            tmp_path / "records"
        )

    def test_nodes_without_records_get_no_file(self, tmp_path):
        cols = parse_chunk("ALLOC_FAIL|t=1.0|node=01-02\n")
        ColumnarArchive({"01-02": cols, "01-03": RecordColumns.empty()}).write_text_directory(
            tmp_path
        )
        assert [p.name for p in tmp_path.iterdir()] == ["01-02.log"]
