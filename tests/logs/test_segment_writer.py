"""The live writer against the per-node reference, byte for byte.

:meth:`LiveArchive.append_batch` and :func:`compact_archive` must write
exactly the segments :mod:`tests.logs.segment_reference` assembles node
by node: the same payload bytes, the same manifest entries, and the same
number of ``fsync`` calls per commit.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logs.columnar import KIND_ERROR, KIND_START, RecordColumns, read_manifest
from repro.logs.ingest import LiveArchive, compact_archive

from . import segment_reference as reference

NODE_POOL = ("01-02", "01-10", "02-04", "21-09", "58-02", "7", "node-x")


def make_columns(names: list[str], rows: list[tuple[int, int, int, int]]) -> RecordColumns:
    """Columns from ``(kind, t quarter-hours, node code, value)`` rows.

    Timestamps sit on a coarse grid, so rows tie on ``t`` within and
    across kinds; every other field is derived from ``value``.
    """
    kind = np.array([r[0] for r in rows], dtype=np.uint8)
    value = np.array([r[3] for r in rows], dtype=np.int64)
    err = kind == KIND_ERROR
    expected = np.where(err, 0xFFFFFFFF, 0).astype(np.uint32)
    flip = np.left_shift(1, value % 32).astype(np.uint32)
    return RecordColumns(
        kind=kind,
        t=np.array([r[1] / 4 for r in rows], dtype=np.float64),
        temp=np.where(value % 5 == 0, np.nan, 30.0 + value / 4),
        mb=np.where(kind == KIND_START, 1024 * (1 + value % 3), 0),
        va=np.where(err, 0x3000 + 4 * value, 0),
        pp=np.where(err, 0x80 + value, 0),
        expected=expected,
        actual=np.where(err, expected ^ flip, 0).astype(np.uint32),
        rep=np.where(err, 1 + value % 3, 0),
        node_code=np.array([r[2] for r in rows], dtype=np.int32),
        node_names=list(names),
    )


@st.composite
def batches(draw) -> RecordColumns:
    """One batch: some nodes, possibly none of its rows on a listed node."""
    names = draw(st.lists(st.sampled_from(NODE_POOL), unique=True, max_size=4))
    if not names:
        return RecordColumns.empty()
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 12),
                st.integers(0, len(names) - 1),
                st.integers(0, 10_000),
            ),
            max_size=30,
        )
    )
    return make_columns(names, rows)


COMMITS = st.lists(st.lists(batches(), max_size=3), min_size=1, max_size=4)
LIMITS = st.tuples(st.sampled_from([1, 4, 25, 1_000_000]), st.sampled_from([1, 2, 3, 256]))


class FsyncCounter:
    def __init__(self, monkeypatch) -> None:
        self.calls = 0
        real = os.fsync

        def counted(fd):
            self.calls += 1
            return real(fd)

        monkeypatch.setattr(os, "fsync", counted)

    def take(self) -> int:
        calls, self.calls = self.calls, 0
        return calls


def assert_entry_files(directory: Path, entries: list[dict], expected) -> None:
    assert entries == [entry for _, entry in expected]
    for entry, (payload, _) in zip(entries, expected):
        assert (directory / entry["file"]).read_bytes() == payload, entry["file"]


def commit(live: LiveArchive, directory: Path, fsyncs: FsyncCounter, batch_ids, parts) -> None:
    before = read_manifest(directory)
    fresh = dict(zip(batch_ids, parts))
    expected = reference.append_segment(parts, seq=int(before["next_seq"]))
    fsyncs.take()
    report = live.append_batch(fresh)
    after = read_manifest(directory)
    added = after["shards"][len(before["shards"]):]
    if expected is None:
        assert report.segment is None and not added
        # The manifest temp file and its directory; nothing fresh, no commit.
        assert fsyncs.take() == (2 if fresh else 0)
    else:
        assert report.segment == expected[1]["file"]
        assert_entry_files(directory, added, [expected])
        assert fsyncs.take() == 4  # segment, directory, manifest, directory


def compact(directory: Path, fsyncs: FsyncCounter, rows: int, nodes: int) -> None:
    before = read_manifest(directory)
    expected = reference.compaction_segments(
        directory, before, max_segment_rows=rows, max_segment_nodes=nodes
    )
    fsyncs.take()
    report = compact_archive(directory, max_segment_rows=rows, max_segment_nodes=nodes)
    after = read_manifest(directory)
    kept = [entry for entry in before["shards"] if entry in after["shards"]]
    assert report.segments_written == len(expected)
    assert_entry_files(directory, after["shards"][len(kept):], expected)
    # Two per output segment, two for the manifest; nothing without work.
    assert fsyncs.take() == (2 * len(expected) + 2 if expected else 0)


@settings(max_examples=40, deadline=None)
@given(commits=COMMITS, limits=LIMITS, late=st.lists(batches(), max_size=2))
def test_commits_and_compactions_match_the_per_node_reference(commits, limits, late):
    with pytest.MonkeyPatch.context() as monkeypatch, tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        fsyncs = FsyncCounter(monkeypatch)
        live = LiveArchive.create(directory)
        for i, parts in enumerate(commits):
            commit(live, directory, fsyncs, [f"c{i}-b{j}" for j in range(len(parts))], parts)
        compact(directory, fsyncs, *limits)
        # A second pass merges a fresh L0 segment into the L1 runs.
        commit(live, directory, fsyncs, [f"late-{j}" for j in range(len(late))], late)
        compact(directory, fsyncs, *limits)


def test_named_cases(tmp_path, monkeypatch):
    """The cases the property draws, spelled out once."""
    fsyncs = FsyncCounter(monkeypatch)
    live = LiveArchive.create(tmp_path)
    tie = [(k, 4, 0, 7) for k in range(4)]
    # Ties across kinds and across two batches of one commit, plus a
    # listed node without rows.
    commit(live, tmp_path, fsyncs, ["a", "b"], [
        make_columns(["02-04", "01-02", "58-02"], tie + [(1, 2, 1, 3)]),
        make_columns(["01-02", "02-04"], [(1, 4, 1, 9), (0, 4, 0, 1)]),
    ])
    # An empty batch, then a single-node batch.
    commit(live, tmp_path, fsyncs, ["empty"], [RecordColumns.empty()])
    commit(live, tmp_path, fsyncs, ["one"], [make_columns(["21-09"], [(1, 4, 0, 5)])])
    # Small limits cut the merged nodes into several output segments.
    compact(tmp_path, fsyncs, 2, 2)
    compact(tmp_path, fsyncs, 2, 2)  # nothing left to merge
