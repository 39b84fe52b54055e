"""Columnar ingestion tests: round-trips, equivalence, malformed inputs.

The record-object path (``tests/logs/record_reference.py``) is the
reference; every test here pins the columnar path to it — bit-identical
frames, bit-identical text renderings, and the same
:class:`LogFormatError` family on bad input.
"""

from __future__ import annotations

import gzip
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (
    ChecksumMismatchError,
    ColumnarFormatError,
    LogFormatError,
    UnknownFormatVersionError,
)
from repro.core.records import (
    AllocFailRecord,
    EndRecord,
    ErrorRecord,
    StartRecord,
)
from repro.logs import columnar
from repro.logs.columnar import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    SHARD_COLUMNS,
    ColumnarArchive,
    parse_chunk,
    read_log_file,
    read_manifest,
)
from repro.logs.format import format_record
from repro.logs.frame import ErrorFrame

from .record_reference import LogArchive, columnar_of, from_records, to_records

# -- strategies (mirror tests/logs/test_format.py) --------------------------

NODE = st.integers(1, 63).flatmap(
    lambda b: st.integers(1, 15).map(lambda s: f"{b:02d}-{s:02d}")
)
TS = st.floats(min_value=0.0, max_value=425 * 24.0, allow_nan=False).map(
    lambda t: round(t, 9)
)
TEMP = st.one_of(st.none(), st.floats(18.0, 95.0).map(lambda t: round(t, 2)))
WORD = st.integers(0, 0xFFFFFFFF)
ADDR = st.integers(0, 2**40)


@st.composite
def error_records(draw):
    expected = draw(WORD)
    actual = draw(WORD)
    if expected == actual:
        actual ^= 1
    return ErrorRecord(
        timestamp_hours=draw(TS),
        node=draw(NODE),
        virtual_address=draw(ADDR),
        physical_page=draw(ADDR),
        expected=expected,
        actual=actual,
        temperature_c=draw(TEMP),
        repeat_count=draw(st.integers(1, 10**7)),
    )


@st.composite
def any_records(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return StartRecord(draw(TS), draw(NODE), draw(st.integers(2, 3072)), draw(TEMP))
    if kind == 1:
        return draw(error_records())
    if kind == 2:
        return EndRecord(draw(TS), draw(NODE), draw(TEMP))
    return AllocFailRecord(draw(TS), draw(NODE))


RECORD_BATCH = st.lists(any_records(), max_size=60)


def assert_frames_identical(a: ErrorFrame, b: ErrorFrame) -> None:
    """Bit-for-bit frame equality (NaN-aware on the temperature column)."""
    assert a.node_names == b.node_names
    for attr in (
        "time_hours",
        "node_code",
        "expected",
        "actual",
        "virtual_address",
        "physical_page",
        "repeat_count",
    ):
        xa, xb = getattr(a, attr), getattr(b, attr)
        assert xa.dtype == xb.dtype, attr
        assert np.array_equal(xa, xb), attr
    assert a.temperature_c.dtype == b.temperature_c.dtype
    assert np.array_equal(a.temperature_c, b.temperature_c, equal_nan=True)


def archive_of(records) -> LogArchive:
    archive = LogArchive()
    archive.extend(records)
    return archive


# -- property-based round trips ---------------------------------------------


class TestRoundtripProperties:
    @settings(max_examples=60, deadline=None)
    @given(records=RECORD_BATCH)
    def test_text_to_columnar_to_text_exact(self, tmp_path_factory, records):
        """text -> columnar -> text is the identity on rendered lines."""
        tmp_path = tmp_path_factory.mktemp("rt")
        archive = archive_of(records)
        text_dir = tmp_path / "text"
        archive.write_directory(text_dir)
        columnar = ColumnarArchive.read_text_directory(text_dir)
        back_dir = tmp_path / "back"
        columnar.write_text_directory(back_dir)
        original = {p.name: p.read_text() for p in text_dir.glob("*.log")}
        rebuilt = {p.name: p.read_text() for p in back_dir.glob("*.log")}
        assert rebuilt == original

    @settings(max_examples=60, deadline=None)
    @given(records=RECORD_BATCH)
    def test_records_to_columns_to_records_exact(self, records):
        columns = from_records(records)
        assert to_records(columns) == list(records)

    @settings(max_examples=60, deadline=None)
    @given(records=st.lists(error_records(), max_size=60))
    def test_columnar_frame_matches_from_records(self, records):
        """Columnar ErrorFrame == reference from_records frame, bit-for-bit.

        Timestamps compare bit-exactly because the text format's repr()
        contract round-trips float64 exactly and the binary shards store
        the same float64.
        """
        archive = archive_of(records)
        columnar = columnar_of(archive)
        assert_frames_identical(archive.error_frame(), columnar.error_frame())

    @settings(max_examples=30, deadline=None)
    @given(records=RECORD_BATCH)
    def test_binary_save_load_exact(self, tmp_path_factory, records):
        tmp_path = tmp_path_factory.mktemp("npz")
        archive = archive_of(records)
        columnar_of(archive).save(tmp_path / "col")
        loaded = LogArchive.of(ColumnarArchive.load(tmp_path / "col"))
        assert loaded.nodes == archive.nodes
        for node in archive.nodes:
            assert loaded.records(node) == archive.records(node)


# -- parser behaviour --------------------------------------------------------


class TestBatchParser:
    def test_parse_lines_matches_reference(self):
        records = [
            StartRecord(0.0, "01-02", 3072, 34.25),
            ErrorRecord(1.0, "01-02", 0x30, 0x80, 0xFFFFFFFF, 0xFFFFFFFE, None, 5),
            ErrorRecord(1.5, "01-02", 0x34, 0x80, 0x0, 0x10, 33.1, 2),
            EndRecord(2.0, "01-02", None),
            AllocFailRecord(3.0, "01-02"),
        ]
        lines = [format_record(r) + "\n" for r in records]
        columns = parse_chunk("".join(lines))
        assert to_records(columns) == records

    def test_blank_lines_skipped(self):
        rec = AllocFailRecord(3.0, "01-02")
        columns = parse_chunk("\n" + format_record(rec) + "\n   \n")
        assert to_records(columns) == [rec]

    def test_reordered_fields_fall_back_to_reference_parser(self):
        # parse_line accepts any field order; the fast path must not
        # reject what the reference accepts.
        columns = parse_chunk("END|node=01-02|t=2.0|temp=na")
        assert to_records(columns) == [EndRecord(2.0, "01-02", None)]

    def test_str_and_bytes_give_identical_columns(self, monkeypatch):
        """One chunk holding a bulk-sized ERROR run, lifecycle lines and a
        reordered-field line parses the same from ``str`` and ``bytes``."""
        run = [
            ErrorRecord(1.0 + i / 64, "01-02", 0x30 + 4 * i, 0x80, 0xFFFFFFFF,
                        0xFFFFFFFF ^ (1 << i % 32),
                        None if i % 5 == 0 else 30.0 + i / 4, 1 + i % 3)
            for i in range(2 * columnar._RUN_MIN)
        ]
        records = [
            StartRecord(0.5, "01-02", 3072, 34.25),
            *run,
            EndRecord(2.0, "01-02", None),
            AllocFailRecord(3.0, "01-02"),
        ]
        text = "".join(format_record(r) + "\n" for r in records)
        text += "END|node=01-02|t=4.0|temp=na\n"
        per_line = []
        real_parse_one = columnar._parse_one
        monkeypatch.setattr(
            columnar, "_parse_one",
            lambda staging, raw: per_line.append(raw) or real_parse_one(staging, raw),
        )
        from_str = parse_chunk(text)
        from_bytes = parse_chunk(text.encode("ascii"))
        # Only the four non-ERROR lines (twice) took the per-line path;
        # the ERROR run went through the bulk engine both times.
        assert len(per_line) == 8
        for name in [*SHARD_COLUMNS, "node_code"]:
            a, b = getattr(from_str, name), getattr(from_bytes, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name
        assert from_str.node_names == from_bytes.node_names == ["01-02"]
        assert to_records(from_str) == [*records, EndRecord(4.0, "01-02", None)]

    def test_lifecycle_runs_parse_in_bulk(self, monkeypatch):
        """Canonical START/END/ALLOC_FAIL runs over several nodes take the
        bulk path; a run holding one reordered line, and only that run,
        goes line by line."""
        n = 2 * columnar._RUN_MIN
        nodes = ["01-02", "7", "62-15", "node-0042"]

        def lifecycle(offset):
            out = []
            for i in range(n):
                t, node = offset + i / 8, nodes[i % len(nodes)]
                if i % 3 == 0:
                    out.append(StartRecord(t, node, 1024 * (1 + i % 3), None if i % 5 else 31.25))
                elif i % 3 == 1:
                    out.append(EndRecord(t, node, None if i % 4 else 40.5))
                else:
                    out.append(AllocFailRecord(t, node))
            return out

        errors = [
            ErrorRecord(20.0 + i / 8, nodes[i % 2], 0x30 + 4 * i, 0x80, 0, 1 << i % 32, None, 1)
            for i in range(n)
        ]
        records = [*lifecycle(0.0), *errors, *lifecycle(40.0)]
        lines = [format_record(r) for r in records]
        odd = 2 * n + n // 2
        kind, *fields = lines[odd].split("|")
        lines[odd] = "|".join([kind, *fields[::-1]])
        per_line = []
        real_parse_one = columnar._parse_one
        monkeypatch.setattr(
            columnar, "_parse_one",
            lambda staging, raw: per_line.append(raw) or real_parse_one(staging, raw),
        )
        columns = parse_chunk("".join(line + "\n" for line in lines).encode("ascii"))
        assert len(per_line) == n
        assert to_records(columns) == records
        assert columns.node_names == nodes

    def test_crlf_lifecycle_lines_parse_like_lf(self):
        """``parse_line`` strips each line, so a CRLF START or END line
        ending in ``temp=na`` carries no temperature, as its LF form."""
        lines = [
            "START|t=0.5|node=01-02|mb=3072|temp=na",
            "END|t=1.5|node=01-02|temp=na",
            "START|t=2.5|node=01-02|mb=3072|temp=31.25",
            "END|t=3.5|node=01-02|temp=na",
        ]
        lf = parse_chunk("".join(line + "\n" for line in lines).encode("ascii"))
        for line in lines:
            assert to_records(parse_chunk(line.encode("ascii") + b"\r\n")) == to_records(
                parse_chunk(line.encode("ascii") + b"\n")
            )
        crlf = parse_chunk("".join(line + "\r\n" for line in lines).encode("ascii"))
        for name in [*SHARD_COLUMNS, "node_code"]:
            assert getattr(crlf, name).tobytes() == getattr(lf, name).tobytes(), name
        assert crlf.node_names == lf.node_names

    def test_non_ascii_text_raises_unicode_error(self):
        line = "START|t=0.0|node=0\u00e9-01|mb=3072|temp=na\n"
        with pytest.raises(UnicodeEncodeError):
            parse_chunk(line)
        with pytest.raises(UnicodeDecodeError):
            parse_chunk(line.encode("utf-8"))

    def test_unknown_record_type_raises_logformaterror(self):
        stray = SimpleNamespace(timestamp_hours=1.0, node="01-02")
        with pytest.raises(LogFormatError, match="unknown record type"):
            from_records([stray])

    def test_gzip_file(self, tmp_path):
        rec = ErrorRecord(1.0, "01-02", 0x30, 0x80, 0x0, 0x1, 20.0, 3)
        path = tmp_path / "01-02.log.gz"
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write(format_record(rec) + "\n")
        assert to_records(read_log_file(path)) == [rec]


class TestMalformedText:
    @pytest.mark.parametrize(
        "line",
        [
            "ERROR|t=1.0|node=01-01|va=0x30|pp=0x80|exp=0xZZ|act=0x1|temp=na|rep=1",
            "ERROR|t=junk|node=01-01|va=0x30|pp=0x80|exp=0x0|act=0x1|temp=na|rep=1",
            "BOGUS|t=1.0|node=01-01",
            "ERROR|halfwritten",
            # A line truncated mid-field, as left by a crash during append.
            "ERROR|t=1.0|node=01-01|va=0x30|pp=0x80|exp=0xffffffff|act=0xfffffffe|te",
        ],
    )
    def test_bad_line_raises_logformaterror(self, line):
        with pytest.raises(LogFormatError):
            parse_chunk(line)

    def test_half_written_last_line_in_file(self, tmp_path):
        good = format_record(
            ErrorRecord(1.0, "01-02", 0x30, 0x80, 0x0, 0x1, None, 1)
        )
        path = tmp_path / "01-02.log"
        path.write_text(good + "\n" + good[: len(good) // 2])
        with pytest.raises(LogFormatError):
            read_log_file(path)


# -- archive API -------------------------------------------------------------


class TestColumnarArchive:
    def make(self):
        return archive_of(
            [
                StartRecord(0.0, "01-02", 3072, None),
                ErrorRecord(1.0, "01-02", 0x30, 0x80, 0xFFFFFFFF, 0xFFFFFFFE, None, 5),
                EndRecord(2.0, "01-02", None),
                ErrorRecord(0.5, "02-04", 0x40, 0x81, 0x0, 0x1, 33.0, 1),
            ]
        )

    def test_counts_match_log_archive(self):
        archive = self.make()
        columnar = columnar_of(archive)
        assert columnar.nodes == archive.nodes
        assert columnar.n_records() == archive.n_records()
        assert columnar.n_raw_error_lines() == archive.n_raw_error_lines()
        assert columnar.n_errors() == len(list(archive.error_records()))
        back = LogArchive.of(columnar)
        assert list(back.all_records()) == list(archive.all_records())
        assert to_records(columnar.columns("01-02")) == archive.records("01-02")

    def test_error_frame_interning_order(self):
        columnar = columnar_of(self.make())
        frame = columnar.error_frame()
        # Sorted-node order, zero-error nodes never interned.
        assert frame.node_names == ["01-02", "02-04"]

    def test_unknown_node_is_empty(self):
        columnar = columnar_of(self.make())
        assert len(columnar.columns("99-99")) == 0

    def test_save_fsyncs_every_shard_before_the_manifest_commit(
        self, tmp_path, monkeypatch
    ):
        import os

        events: list[tuple[str, object]] = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            return real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.path.basename(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        manifest = columnar_of(self.make()).save(tmp_path)
        monkeypatch.undo()

        commit = events.index(("replace", MANIFEST_NAME))
        synced = {ino for kind, ino in events[:commit] if kind == "fsync"}
        for entry in manifest["shards"]:
            assert (tmp_path / entry["file"]).stat().st_ino in synced, entry["file"]
        assert read_manifest(tmp_path) == manifest
        assert (tmp_path / MANIFEST_NAME).read_text(encoding="utf-8") == (
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )


# -- binary format failure modes ---------------------------------------------


class TestBinaryFormatErrors:
    @pytest.fixture()
    def saved(self, tmp_path):
        archive = archive_of(
            [
                ErrorRecord(1.0, "01-02", 0x30, 0x80, 0xFFFFFFFF, 0xFFFFFFFE, None, 5),
                ErrorRecord(0.5, "02-04", 0x40, 0x81, 0x0, 0x1, 33.0, 1),
            ]
        )
        columnar_of(archive).save(tmp_path)
        return tmp_path

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ColumnarFormatError):
            ColumnarArchive.load(tmp_path)

    def test_corrupt_manifest_json(self, saved):
        (saved / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(ColumnarFormatError):
            ColumnarArchive.load(saved)

    def test_unknown_format_version(self, saved):
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(UnknownFormatVersionError):
            read_manifest(saved)

    def test_checksum_mismatch(self, saved):
        shard = saved / "01-02.npz"
        payload = bytearray(shard.read_bytes())
        payload[-1] ^= 0xFF
        shard.write_bytes(bytes(payload))
        with pytest.raises(ChecksumMismatchError):
            ColumnarArchive.load(saved)

    def test_corrupt_shard_bytes(self, saved):
        # Rewrite the shard AND its manifest checksum so corruption is
        # caught by the npz layer, not the checksum.
        import hashlib

        shard = saved / "01-02.npz"
        garbage = b"this is not a zip archive at all"
        shard.write_bytes(garbage)
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        for entry in manifest["shards"]:
            if entry["file"] == "01-02.npz":
                entry["sha256"] = hashlib.sha256(garbage).hexdigest()
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ColumnarFormatError):
            ColumnarArchive.load(saved)

    def test_truncated_shard(self, saved):
        import hashlib

        shard = saved / "01-02.npz"
        truncated = shard.read_bytes()[:40]
        shard.write_bytes(truncated)
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        for entry in manifest["shards"]:
            if entry["file"] == "01-02.npz":
                entry["sha256"] = hashlib.sha256(truncated).hexdigest()
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ColumnarFormatError):
            ColumnarArchive.load(saved)

    def test_missing_shard_file(self, saved):
        (saved / "01-02.npz").unlink()
        with pytest.raises(ColumnarFormatError):
            ColumnarArchive.load(saved)

    def test_record_count_mismatch(self, saved):
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        manifest["shards"][0]["n_records"] += 1
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ColumnarFormatError):
            ColumnarArchive.load(saved)

    def test_errors_are_logformaterror_family(self):
        assert issubclass(ColumnarFormatError, LogFormatError)
        assert issubclass(ChecksumMismatchError, LogFormatError)
        assert issubclass(UnknownFormatVersionError, LogFormatError)
