"""Property battery for the live store (ISSUE 6 satellite 1).

Two claims, enforced over arbitrary record populations:

* an archive built by streaming batches through
  :meth:`LiveArchive.append_batch` — before *and* after LSM compaction —
  renders byte-identically to the naive reference (collect every record,
  lexsort, write), and its error frame is bit-identical to the
  record-loop reference implementation;
* every CLI preset plan (`repro query --preset ...`) returns identical
  bytes against the live archive before and after compaction, including
  the zone-map pruning counters — merged part zones must prune exactly
  like the single compacted run's zone.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import QUERY_PRESETS
from repro.logs.columnar import ColumnarArchive
from repro.logs.ingest import LiveArchive, compact_archive
from repro.query import ArchiveSource, Query, QueryEngine

from .record_reference import LogArchive, from_records
from .test_columnar import any_records, assert_frames_identical

#: A campaign's worth of appends: each inner list is one
#: ``append_batch`` commit (records may span several nodes).
APPEND_STREAM = st.lists(
    st.lists(any_records(), max_size=20), min_size=1, max_size=5
)


def stream_appends(path, appends) -> LiveArchive:
    live = LiveArchive.create(path)
    for i, records in enumerate(appends):
        live.append_batch({f"b{i}": from_records(records)})
    return live


def reference_rendering(appends, path) -> dict[str, str]:
    """The naive path: every record in arrival order, then one lexsort."""
    archive = LogArchive()
    for records in appends:
        archive.extend(records)
    archive.sort()
    archive.write_directory(path)
    return {p.name: p.read_text() for p in path.glob("*.log")}, archive


def rendering_of(archive: ColumnarArchive, path) -> dict[str, str]:
    archive.write_text_directory(path)
    return {p.name: p.read_text() for p in path.glob("*.log")}


def run_presets(path) -> dict[str, object]:
    engine = QueryEngine(ArchiveSource(path))
    return {
        name: engine.execute(Query.from_dict(spec), use_cache=False)
        for name, spec in QUERY_PRESETS.items()
    }


def assert_results_identical(before: dict, after: dict) -> None:
    assert before.keys() == after.keys()
    for name in before:
        a, b = before[name], after[name]
        assert a.columns.keys() == b.columns.keys(), name
        for column in a.columns:
            xa, xb = a.columns[column], b.columns[column]
            assert xa.dtype == xb.dtype, (name, column)
            if xa.dtype.kind == "f":
                assert np.array_equal(xa, xb, equal_nan=True), (name, column)
            else:
                assert np.array_equal(xa, xb), (name, column)
        for counter in (
            "shards_total",
            "shards_pruned",
            "shards_scanned",
            "rows_scanned",
            "rows_output",
        ):
            assert getattr(a.stats, counter) == getattr(b.stats, counter), (
                name,
                counter,
            )


class TestStreamedEqualsBatch:
    @settings(max_examples=25, deadline=None)
    @given(appends=APPEND_STREAM)
    def test_streamed_then_compacted_matches_naive_sort(
        self, tmp_path_factory, appends
    ):
        tmp_path = tmp_path_factory.mktemp("stream-prop")
        expected, reference = reference_rendering(appends, tmp_path / "ref")
        arch = tmp_path / "arch"
        stream_appends(arch, appends)

        live_view = ColumnarArchive.load(arch)
        assert rendering_of(live_view, tmp_path / "pre") == expected
        assert_frames_identical(live_view.error_frame(), reference.error_frame())

        compact_archive(arch)
        compacted = ColumnarArchive.load(arch)
        assert rendering_of(compacted, tmp_path / "post") == expected
        assert_frames_identical(compacted.error_frame(), reference.error_frame())

    @settings(max_examples=25, deadline=None)
    @given(appends=APPEND_STREAM)
    def test_replay_of_every_batch_changes_nothing(
        self, tmp_path_factory, appends
    ):
        """Exactly-once: a full second pass over the stream is a no-op."""
        tmp_path = tmp_path_factory.mktemp("replay-prop")
        arch = tmp_path / "arch"
        live = stream_appends(arch, appends)
        generation = live.generation
        files = sorted(p.name for p in arch.glob("*.npz"))
        for i, records in enumerate(appends):
            report = live.append_batch(
                {f"b{i}": from_records(records)}
            )
            assert report.committed == []
        assert live.generation == generation
        assert sorted(p.name for p in arch.glob("*.npz")) == files


class TestPresetPlanParity:
    @settings(max_examples=15, deadline=None)
    @given(appends=APPEND_STREAM)
    def test_presets_identical_before_and_after_compaction(
        self, tmp_path_factory, appends
    ):
        tmp_path = tmp_path_factory.mktemp("preset-prop")
        arch = tmp_path / "arch"
        stream_appends(arch, appends)
        before = run_presets(arch)
        compact_archive(arch)
        after = run_presets(arch)
        assert_results_identical(before, after)
