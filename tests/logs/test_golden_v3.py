"""Golden-corpus regression for format v3 (ISSUE 6 satellite 3).

``tests/data/golden_archive_v3`` freezes the golden log corpus as a live
v3 archive (one compacted L1 run + one uncompacted L0 segment + a batch
ledger).  These tests pin its manifest shape and fingerprint, prove
v1→v3 and v2→v3 manifest upgrades idempotent and fingerprint-stable,
and prove v1/v2 archives stay readable without being modified.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.logs.columnar import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    ColumnarArchive,
    RecordColumns,
    manifest_fingerprint,
    read_manifest,
    upgrade_archive,
)
from repro.logs.ingest import LiveArchive

from .record_reference import LogArchive, columnar_of
from .test_columnar import assert_frames_identical

GOLDEN_LOGS = Path(__file__).parents[1] / "data" / "golden_logs"
GOLDEN_V3 = Path(__file__).parents[1] / "data" / "golden_archive_v3"

#: Frozen by ``tests/data/make_golden_archive_v3.py`` — regenerate the
#: fixture deliberately and re-freeze together.
EXPECTED = {
    "fingerprint": "31b367a6f5daede972c5872db980ab96b2b1d3156bfd9ed377dd27b8b8014b6f",
    "generation": 3,
    "next_seq": 3,
    "batches": ["unit:01-01", "unit:01-02", "unit:02-07", "unit:63-15"],
    "levels": [0, 1],
    "n_nodes": 4,
    "n_records": 31,
    "n_errors": 23,
    "n_raw_lines": 120_212,
}


@pytest.fixture(scope="module")
def golden_text() -> LogArchive:
    return LogArchive.read_directory(GOLDEN_LOGS)


def strip_to_v1(path: Path) -> None:
    """Rewrite the manifest as a v1 (pre-zone-map) writer produced it."""
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    manifest["format_version"] = 1
    for key in ("generation", "next_seq", "batches"):
        manifest.pop(key, None)
    for entry in manifest["shards"]:
        for key in ("zone_map", "level", "seq", "node_zones", "nodes", "n_nodes"):
            entry.pop(key, None)
    (path / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))


def strip_to_v2(path: Path) -> None:
    """Rewrite the manifest as a v2 (zone maps, no live store) one."""
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    manifest["format_version"] = 2
    for key in ("generation", "next_seq", "batches"):
        manifest.pop(key, None)
    for entry in manifest["shards"]:
        for key in ("level", "seq", "node_zones", "nodes", "n_nodes"):
            entry.pop(key, None)
    (path / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))


@pytest.fixture()
def per_node_dir(golden_text, tmp_path) -> Path:
    """A per-node-shard v3 save of the corpus (strippable to v1/v2)."""
    path = tmp_path / "per-node"
    columnar_of(golden_text).save(path)
    return path


class TestFrozenFixture:
    def test_manifest_shape_is_frozen(self):
        manifest = read_manifest(GOLDEN_V3)
        assert manifest["format_version"] == FORMAT_VERSION == 3
        assert manifest["generation"] == EXPECTED["generation"]
        assert manifest["next_seq"] == EXPECTED["next_seq"]
        assert manifest["batches"] == EXPECTED["batches"]
        assert sorted(int(e["level"]) for e in manifest["shards"]) == EXPECTED["levels"]
        for key in ("n_nodes", "n_records", "n_errors", "n_raw_lines"):
            assert manifest[key] == EXPECTED[key], key

    def test_fingerprint_is_frozen(self):
        assert (
            manifest_fingerprint(read_manifest(GOLDEN_V3))
            == EXPECTED["fingerprint"]
        )

    def test_fixture_matches_the_text_corpus(self, golden_text, tmp_path):
        loaded = ColumnarArchive.load(GOLDEN_V3)
        assert loaded.nodes == golden_text.nodes
        assert loaded.n_records() == golden_text.n_records()
        assert_frames_identical(loaded.error_frame(), golden_text.error_frame())
        loaded.write_text_directory(tmp_path)
        reference = LogArchive.read_directory(GOLDEN_LOGS)
        reference.sort()
        ref_dir = tmp_path / "ref"
        reference.write_directory(ref_dir)
        assert {p.name: p.read_text() for p in tmp_path.glob("*.log")} == {
            p.name: p.read_text() for p in ref_dir.glob("*.log")
        }

    def test_fixture_accepts_live_appends(self, tmp_path):
        """A frozen fixture copy opens for writing without an upgrade."""
        work = tmp_path / "work"
        shutil.copytree(GOLDEN_V3, work)
        live = LiveArchive.open(work)
        report = live.append_batch({"unit:01-01": RecordColumns.empty()})
        assert report.deduplicated == ["unit:01-01"]  # ledger survives the freeze


class TestUpgrades:
    @pytest.mark.parametrize("strip", [strip_to_v1, strip_to_v2])
    def test_upgrade_is_idempotent_and_fingerprint_stable(
        self, per_node_dir, strip
    ):
        pristine = read_manifest(per_node_dir)
        fingerprint = manifest_fingerprint(pristine)
        strip(per_node_dir)
        first = upgrade_archive(per_node_dir)
        assert first["format_version"] == FORMAT_VERSION
        assert manifest_fingerprint(first) == fingerprint  # shards untouched
        bytes_after_first = (per_node_dir / MANIFEST_NAME).read_bytes()
        second = upgrade_archive(per_node_dir)
        assert second == first
        assert (per_node_dir / MANIFEST_NAME).read_bytes() == bytes_after_first

    @pytest.mark.parametrize("strip", [strip_to_v1, strip_to_v2])
    def test_upgraded_archive_is_live_writable(self, per_node_dir, strip):
        strip(per_node_dir)
        upgrade_archive(per_node_dir)
        live = LiveArchive.open(per_node_dir)
        assert live.generation == 1  # one settled pre-v3 generation
        assert live.committed_batches == []

    @pytest.mark.parametrize("strip", [strip_to_v1, strip_to_v2])
    def test_pre_v3_archives_stay_readable_unmodified(
        self, per_node_dir, strip, golden_text
    ):
        strip(per_node_dir)
        manifest_bytes = (per_node_dir / MANIFEST_NAME).read_bytes()
        loaded = ColumnarArchive.load(per_node_dir)
        assert_frames_identical(loaded.error_frame(), golden_text.error_frame())
        assert loaded.n_records() == golden_text.n_records()
        # Reading never rewrites: v1/v2 users opt into v3 via `repro
        # logs upgrade`, not by loading.
        assert (per_node_dir / MANIFEST_NAME).read_bytes() == manifest_bytes
