"""Live-store unit tests: :class:`LiveArchive` lifecycle, the exactly-once
batch ledger, orphan sweeping, and LSM compaction invariants.

The property battery (`test_ingest_property.py`) proves streamed archives
bit-identical to the batch path over arbitrary record populations; this
module pins the individual mechanisms with hand-built inputs.
"""

from __future__ import annotations

import json

import pytest

from repro.core.errors import ColumnarFormatError
from repro.core.records import EndRecord, ErrorRecord, StartRecord
from repro.logs.columnar import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    ColumnarArchive,
    RecordColumns,
    read_manifest,
)
from repro.logs.ingest import (
    COMPACT_COMMIT_STEPS,
    INGEST_COMMIT_STEPS,
    LiveArchive,
    compact_archive,
)

from .record_reference import LogArchive, from_records


def node_records(node: str, n_errors: int = 4, t0: float = 0.0) -> list:
    """START + errors (mixed temps/repeats) + END for one node."""
    records = [StartRecord(t0, node, 3072, 40.0)]
    for i in range(n_errors):
        records.append(
            ErrorRecord(
                timestamp_hours=t0 + 1.0 + i,
                node=node,
                virtual_address=4096 * (i + 1),
                physical_page=7 + i,
                expected=0xDEADBEEF,
                actual=0xDEADBEEE if i % 2 == 0 else 0xDEAD0000,
                temperature_c=None if i % 3 == 0 else round(50.0 + i, 2),
                repeat_count=1 + i,
            )
        )
    records.append(EndRecord(t0 + n_errors + 2.0, node, 41.5))
    return records


def node_batch(node: str, n_errors: int = 4, t0: float = 0.0) -> RecordColumns:
    return from_records(node_records(node, n_errors, t0))


def strip_to_v2(path) -> None:
    """Rewrite a saved v3 manifest as the v2 a zone-map-era writer produced."""
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    manifest["format_version"] = 2
    for key in ("generation", "next_seq", "batches"):
        manifest.pop(key, None)
    for entry in manifest["shards"]:
        entry.pop("level", None)
        entry.pop("seq", None)
    (path / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))


def segment_files(path) -> list[str]:
    return sorted(p.name for p in path.glob("*.npz"))


def text_rendering(archive: ColumnarArchive, path) -> dict[str, str]:
    out = path / "text"
    archive.write_text_directory(out)
    return {p.name: p.read_text() for p in out.glob("*.log")}


class TestCreateOpen:
    def test_create_initializes_empty_v3(self, tmp_path):
        live = LiveArchive.create(tmp_path / "arch")
        manifest = read_manifest(tmp_path / "arch")
        assert manifest["format_version"] == FORMAT_VERSION == 3
        assert manifest["generation"] == 0
        assert manifest["next_seq"] == 0
        assert manifest["batches"] == []
        assert manifest["shards"] == []
        assert live.generation == 0
        assert live.committed_batches == []

    def test_create_refuses_existing_unless_exist_ok(self, tmp_path):
        LiveArchive.create(tmp_path)
        with pytest.raises(ColumnarFormatError, match="already exists"):
            LiveArchive.create(tmp_path, exist_ok=False)

    def test_create_reopens_existing_state(self, tmp_path):
        LiveArchive.create(tmp_path).append_batch({"b0": node_batch("01-01")})
        live = LiveArchive.create(tmp_path)
        assert live.generation == 1
        assert live.committed_batches == ["b0"]

    def test_open_rejects_pre_v3_archives(self, tmp_path):
        ColumnarArchive({"01-01": node_batch("01-01")}).save(tmp_path)
        strip_to_v2(tmp_path)
        with pytest.raises(ColumnarFormatError, match="repro logs upgrade"):
            LiveArchive.open(tmp_path)
        with pytest.raises(ColumnarFormatError, match="repro logs upgrade"):
            compact_archive(tmp_path)

    def test_open_sweeps_torn_and_orphan_files(self, tmp_path):
        live = LiveArchive.create(tmp_path)
        live.append_batch({"b0": node_batch("01-01")})
        referenced = segment_files(tmp_path)
        (tmp_path / "seg-00000099-L0.npz.tmp").write_bytes(b"torn")
        (tmp_path / "orphan.npz").write_bytes(b"crashed commit leftovers")
        reopened = LiveArchive.open(tmp_path)
        assert segment_files(tmp_path) == referenced
        assert not list(tmp_path.glob("*.tmp"))
        assert reopened.committed_batches == ["b0"]


class TestAppendBatch:
    def test_first_append_commits_level0_segment(self, tmp_path):
        live = LiveArchive.create(tmp_path)
        cols = node_batch("01-01")
        report = live.append_batch({"unit:01-01": cols})
        assert report.generation == 1
        assert report.committed == ["unit:01-01"]
        assert report.deduplicated == []
        assert report.n_records == len(cols)
        assert report.segment is not None and report.segment.startswith("seg-")
        manifest = read_manifest(tmp_path)
        (entry,) = manifest["shards"]
        assert entry["level"] == 0
        assert entry["seq"] == 0
        assert manifest["next_seq"] == 1
        assert manifest["batches"] == ["unit:01-01"]

    def test_replayed_batch_is_deduplicated(self, tmp_path):
        live = LiveArchive.create(tmp_path)
        live.append_batch({"b0": node_batch("01-01")})
        files = segment_files(tmp_path)
        report = live.append_batch({"b0": node_batch("01-01")})
        assert report.committed == []
        assert report.deduplicated == ["b0"]
        assert report.segment is None
        assert live.generation == 1  # replay is a no-op, not a commit
        assert segment_files(tmp_path) == files

    def test_mixed_fresh_and_duplicate_ids(self, tmp_path):
        live = LiveArchive.create(tmp_path)
        live.append_batch({"b0": node_batch("01-01")})
        fresh = node_batch("01-02", n_errors=2)
        report = live.append_batch({"b0": node_batch("01-01"), "b1": fresh})
        assert report.committed == ["b1"]
        assert report.deduplicated == ["b0"]
        assert report.n_records == len(fresh)  # duplicate rows never re-land

    def test_empty_batch_enters_ledger_without_a_segment(self, tmp_path):
        live = LiveArchive.create(tmp_path)
        report = live.append_batch({"empty": RecordColumns.empty()})
        assert report.committed == ["empty"]
        assert report.segment is None
        assert segment_files(tmp_path) == []
        assert live.generation == 1
        replay = live.append_batch({"empty": RecordColumns.empty()})
        assert replay.deduplicated == ["empty"]

    def test_append_sorts_rows_canonically(self, tmp_path):
        records = node_records("01-01", n_errors=6)
        shuffled = [records[i] for i in (5, 0, 7, 3, 1, 6, 2, 4)]
        live = LiveArchive.create(tmp_path)
        live.append_batch({"b0": from_records(shuffled)})
        reference = LogArchive()
        reference.extend(records)
        reference.sort()
        ref_dir = tmp_path / "ref"
        reference.write_directory(ref_dir)
        loaded = ColumnarArchive.load(tmp_path)
        assert text_rendering(loaded, tmp_path) == {
            p.name: p.read_text() for p in ref_dir.glob("*.log")
        }

    def test_multi_node_segment_entry_metadata(self, tmp_path):
        live = LiveArchive.create(tmp_path)
        batches = {
            f"unit:{node}": node_batch(node, t0=10.0 * i)
            for i, node in enumerate(["02-01", "01-01", "03-05"])
        }
        report = live.append_batch(batches)
        (entry,) = read_manifest(tmp_path)["shards"]
        assert entry["node"] is None
        assert entry["nodes"] == ["01-01", "02-01", "03-05"]
        assert entry["n_nodes"] == 3
        assert sorted(entry["node_zones"]) == entry["nodes"]
        assert entry["n_records"] == report.n_records
        for zone in entry["node_zones"].values():
            assert zone["n_records"] == len(node_batch("x"))

    def test_fingerprint_changes_on_every_commit(self, tmp_path):
        live = LiveArchive.create(tmp_path)
        fp0 = live.fingerprint()
        live.append_batch({"b0": node_batch("01-01")})
        fp1 = live.fingerprint()
        live.append_batch({"b1": node_batch("01-02")})
        fp2 = live.fingerprint()
        assert len({fp0, fp1, fp2}) == 3

    def test_totals_match_loaded_archive(self, tmp_path):
        live = LiveArchive.create(tmp_path)
        live.append_batch({"b0": node_batch("01-01"), "b1": node_batch("01-02")})
        live.append_batch({"b2": node_batch("01-01", n_errors=2, t0=50.0)})
        manifest = read_manifest(tmp_path)
        loaded = ColumnarArchive.load(tmp_path)
        assert manifest["n_nodes"] == len(loaded.nodes) == 2
        assert manifest["n_records"] == loaded.n_records()
        assert manifest["n_errors"] == loaded.n_errors()


@pytest.fixture()
def populated(tmp_path):
    """Three commits: node 01-01 split across two, 01-02/01-03 in one each."""
    live = LiveArchive.create(tmp_path)
    live.append_batch({"b0": node_batch("01-01", t0=0.0)})
    live.append_batch(
        {"b1": node_batch("01-02", t0=5.0), "b2": node_batch("01-03", t0=7.0)}
    )
    live.append_batch({"b3": node_batch("01-01", n_errors=3, t0=100.0)})
    return live


class TestCompaction:
    def test_commit_step_catalogues(self):
        assert COMPACT_COMMIT_STEPS == (
            ("planned",) + INGEST_COMMIT_STEPS + ("obsolete-removed",)
        )

    def test_compact_merges_to_single_coverage(self, populated, tmp_path):
        before = read_manifest(tmp_path)
        report = populated.compact()
        manifest = read_manifest(tmp_path)
        covering: dict[str, int] = {}
        for entry in manifest["shards"]:
            assert entry["level"] >= 1
            for node in entry.get("nodes") or [entry["node"]]:
                covering[node] = covering.get(node, 0) + 1
        assert covering == {"01-01": 1, "01-02": 1, "01-03": 1}
        assert report.entries_consumed == len(before["shards"])
        assert report.n_records == before["n_records"] == manifest["n_records"]
        assert report.max_level == 1
        assert not report.dry_run
        assert populated.committed_batches == ["b0", "b1", "b2", "b3"]

    def test_compact_is_bit_identical_to_batch_path(self, populated, tmp_path):
        reference = LogArchive()
        for node, t0, n in [
            ("01-01", 0.0, 4),
            ("01-02", 5.0, 4),
            ("01-03", 7.0, 4),
        ]:
            reference.extend(node_records(node, n, t0))
        reference.extend(node_records("01-01", 3, 100.0))
        reference.sort()
        ref_dir = tmp_path / "ref"
        reference.write_directory(ref_dir)
        expected = {p.name: p.read_text() for p in ref_dir.glob("*.log")}
        assert text_rendering(ColumnarArchive.load(tmp_path), tmp_path / "pre") == expected
        populated.compact()
        assert text_rendering(ColumnarArchive.load(tmp_path), tmp_path / "post") == expected

    def test_recompaction_is_a_noop(self, populated, tmp_path):
        populated.compact()
        manifest_bytes = (tmp_path / MANIFEST_NAME).read_bytes()
        report = populated.compact()
        assert report.entries_consumed == 0
        assert report.segments_written == 0
        assert report.n_components == 0
        assert (tmp_path / MANIFEST_NAME).read_bytes() == manifest_bytes

    def test_dry_run_leaves_archive_untouched(self, populated, tmp_path):
        manifest_bytes = (tmp_path / MANIFEST_NAME).read_bytes()
        files = segment_files(tmp_path)
        report = populated.compact(dry_run=True)
        assert report.dry_run
        assert report.segments_written == 0
        assert report.entries_consumed == 3
        assert report.n_components >= 1
        assert (tmp_path / MANIFEST_NAME).read_bytes() == manifest_bytes
        assert segment_files(tmp_path) == files

    def test_bucket_splitting_respects_max_segment_nodes(self, tmp_path):
        live = LiveArchive.create(tmp_path)
        nodes = [f"01-{i:02d}" for i in range(1, 6)]
        live.append_batch({f"u:{n}": node_batch(n) for n in nodes})
        report = live.compact(max_segment_nodes=2)
        assert report.segments_written == 3  # ceil(5 nodes / 2 per segment)
        manifest = read_manifest(tmp_path)
        assert sorted(
            node for e in manifest["shards"] for node in e.get("nodes") or [e["node"]]
        ) == nodes

    def test_untouched_runs_pass_through_unmodified(self, populated, tmp_path):
        populated.compact()
        settled = {e["file"]: e for e in read_manifest(tmp_path)["shards"]}
        populated.append_batch({"b9": node_batch("63-15", t0=200.0)})
        report = populated.compact()
        assert report.entries_consumed == 1  # only the fresh L0 component
        manifest = read_manifest(tmp_path)
        carried = {e["file"]: e for e in manifest["shards"] if e["file"] in settled}
        assert carried == settled  # checksums, zones, levels all intact

    def test_levels_stack_across_generations(self, populated, tmp_path):
        populated.compact()
        populated.append_batch({"b9": node_batch("01-01", t0=200.0)})
        report = populated.compact()
        # The new L0 shares node 01-01 with the settled L1 run, so the
        # merged output sits one level above the tallest input.
        assert report.max_level == 2
