"""Format-v2 satellite tests: zone maps, upgrade migration, and the
hardened ``repro logs inspect``."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import bitops
from repro.logs.columnar import (
    FORMAT_VERSION,
    KIND_ERROR,
    ColumnarArchive,
    compute_zone_map,
    manifest_fingerprint,
    read_manifest,
    upgrade_archive,
)

from ..query.conftest import make_staggered_archive


@pytest.fixture()
def archive() -> ColumnarArchive:
    return make_staggered_archive(n_nodes=4, n_errors=30, seed=99)


@pytest.fixture()
def saved(archive, tmp_path):
    archive.save(tmp_path)
    return tmp_path


def strip_to_v1(path) -> None:
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["format_version"] = 1
    for entry in manifest["shards"]:
        entry.pop("zone_map")
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2))


class TestZoneMaps:
    def test_zone_map_contents(self, archive):
        node = archive.nodes[0]
        cols = archive.columns(node)
        zone = compute_zone_map(cols)
        assert zone["n_records"] == len(cols)
        assert zone["t"] == [cols.t.min(), cols.t.max()]
        logged = cols.temp[~np.isnan(cols.temp)]
        assert zone["n_temp"] == logged.size
        assert zone["temp"] == [logged.min(), logged.max()]
        kinds, counts = np.unique(cols.kind, return_counts=True)
        assert zone["kinds"] == {
            str(int(k)): int(c) for k, c in zip(kinds, counts)
        }
        err = cols.kind == KIND_ERROR
        bits = np.asarray(
            bitops.n_flipped_bits(cols.expected[err], cols.actual[err])
        )
        assert zone["bits"] == [int(bits.min()), int(bits.max())]

    def test_zone_map_is_json_clean(self, archive):
        zone = compute_zone_map(archive.columns(archive.nodes[0]))
        json.dumps(zone)  # no numpy scalars may leak through

    def test_empty_columns(self):
        from repro.logs.columnar import RecordColumns

        zone = compute_zone_map(RecordColumns.empty())
        assert zone["n_records"] == 0
        assert zone["t"] is None
        assert zone["temp"] is None
        assert zone["bits"] is None

    def test_save_writes_v3_with_zone_maps(self, saved):
        manifest = read_manifest(saved)
        assert manifest["format_version"] == FORMAT_VERSION == 3
        assert all("zone_map" in e for e in manifest["shards"])
        assert all("level" in e and "seq" in e for e in manifest["shards"])
        assert manifest["generation"] == 1
        assert manifest["next_seq"] == len(manifest["shards"])


class TestUpgrade:
    def test_v1_archive_still_loads(self, saved, archive):
        strip_to_v1(saved)
        loaded = ColumnarArchive.load(saved)
        assert loaded.nodes == archive.nodes
        assert loaded.n_records() == archive.n_records()

    def test_upgrade_backfills_zone_maps(self, saved):
        pristine = read_manifest(saved)
        strip_to_v1(saved)
        upgraded = upgrade_archive(saved)
        assert upgraded["format_version"] == FORMAT_VERSION
        for entry, reference in zip(upgraded["shards"], pristine["shards"]):
            assert entry["zone_map"] == reference["zone_map"]
            assert entry["sha256"] == reference["sha256"]  # shards untouched
        assert manifest_fingerprint(upgraded) == manifest_fingerprint(pristine)

    def test_upgrade_is_idempotent(self, saved):
        strip_to_v1(saved)
        first = upgrade_archive(saved)
        second = upgrade_archive(saved)
        assert first == second == read_manifest(saved)

    def test_upgrade_rejects_corrupt_shard(self, saved):
        strip_to_v1(saved)
        manifest = read_manifest(saved)
        shard_file = saved / manifest["shards"][0]["file"]
        shard_file.write_bytes(shard_file.read_bytes()[:-20])
        from repro.core.errors import ShardCorruptError

        with pytest.raises(ShardCorruptError):
            upgrade_archive(saved)


class TestInspectCli:
    def test_missing_manifest_exits_cleanly(self, tmp_path, capsys):
        exit_code = cli_main(["logs", "inspect", "--dir", str(tmp_path / "nope")])
        assert exit_code == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_manifest_exits_cleanly(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text("{truncated")
        exit_code = cli_main(["logs", "inspect", "--dir", str(tmp_path)])
        assert exit_code == 1
        assert "corrupt manifest" in capsys.readouterr().err

    def test_unknown_version_exits_cleanly(self, saved, capsys):
        manifest = json.loads((saved / "manifest.json").read_text())
        manifest["format_version"] = 99
        (saved / "manifest.json").write_text(json.dumps(manifest))
        exit_code = cli_main(["logs", "inspect", "--dir", str(saved)])
        assert exit_code == 1
        assert "not supported" in capsys.readouterr().err

    def test_inspect_reports_sizes_without_loading(self, saved, capsys):
        exit_code = cli_main(["logs", "inspect", "--dir", str(saved)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "bytes" in out
        assert "[zone-map]" in out

    def test_inspect_tolerates_minimal_manifest_entries(self, saved, capsys):
        """Hand-edited manifests missing optional keys must not traceback."""
        manifest = json.loads((saved / "manifest.json").read_text())
        for key in ("n_records", "n_errors", "n_raw_lines", "writer"):
            manifest.pop(key, None)
        for entry in manifest["shards"]:
            for key in ("n_records", "n_raw_lines", "zone_map"):
                entry.pop(key, None)
        (saved / "manifest.json").write_text(json.dumps(manifest))
        exit_code = cli_main(["logs", "inspect", "--dir", str(saved)])
        assert exit_code == 0
        assert "[no zone-map]" in capsys.readouterr().out

    def test_inspect_flags_missing_shard_file(self, saved, capsys):
        manifest = read_manifest(saved)
        (saved / manifest["shards"][0]["file"]).unlink()
        exit_code = cli_main(["logs", "inspect", "--dir", str(saved)])
        assert exit_code == 0
        assert "MISSING FILE" in capsys.readouterr().out

    def test_upgrade_cli(self, saved, capsys):
        strip_to_v1(saved)
        assert cli_main(["logs", "upgrade", "--dir", str(saved)]) == 0
        assert "upgraded" in capsys.readouterr().out
        assert cli_main(["logs", "upgrade", "--dir", str(saved)]) == 0
        assert "nothing to do" in capsys.readouterr().out
        assert read_manifest(saved)["format_version"] == FORMAT_VERSION
