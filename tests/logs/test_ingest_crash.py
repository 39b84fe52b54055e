"""Crash-safety battery for the live store (ISSUE 6 satellite 2).

A sacrificial child process runs one ingest or compaction commit with a
seeded :func:`repro.chaos.kill_worker_on` plan that SIGKILLs it at a
chosen protocol step (`INGEST_COMMIT_STEPS` / `COMPACT_COMMIT_STEPS`).
The parent then reopens the archive and asserts the crash invariants:

* the manifest swap is the only commit point — at every pre-commit step
  the archive still renders exactly its previous contents, at every
  post-commit step exactly its new contents; no third state exists;
* zero records are lost or duplicated: replaying the interrupted
  operation (the campaign resume path) converges on the same bytes the
  uninterrupted run produces;
* torn temp files and unreferenced segments are swept on the next open.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro import chaos
from repro.logs.columnar import ColumnarArchive, read_log_file
from repro.logs.ingest import (
    COMPACT_COMMIT_STEPS,
    INGEST_COMMIT_STEPS,
    LiveArchive,
    compact_archive,
)

from .record_reference import LogArchive, from_records
from .test_ingest import node_records

SRC = str(Path(__file__).resolve().parents[2] / "src")

_INGEST_DRIVER = """
import sys
sys.path.insert(0, sys.argv[4])
from repro import chaos
from repro.logs.columnar import read_log_file
from repro.logs.ingest import LiveArchive
live = LiveArchive.open(sys.argv[1])
cols = read_log_file(sys.argv[2])
live.append_batch(
    {"b-crash": cols}, chaos=chaos.kill_worker_on("ingest:" + sys.argv[3])
)
"""

_COMPACT_DRIVER = """
import sys
sys.path.insert(0, sys.argv[3])
from repro import chaos
from repro.logs.ingest import compact_archive
compact_archive(sys.argv[1], chaos=chaos.kill_worker_on("compact:" + sys.argv[2]))
"""


def rendering(path) -> dict[str, str]:
    """The archive's full per-node text rendering (the parity currency)."""
    out = Path(path) / "__render__"
    ColumnarArchive.load(path).write_text_directory(out)
    try:
        return {p.name: p.read_text() for p in out.glob("*.log")}
    finally:
        for p in out.glob("*.log"):
            p.unlink()
        out.rmdir()


def write_log(records, path) -> Path:
    archive = LogArchive()
    archive.extend(records)
    archive.sort()
    archive.write_directory(path)
    (log_file,) = sorted(path.glob("*.log"))
    return log_file


def referenced_segments(path) -> set[str]:
    manifest = LiveArchive.open(path).manifest
    return {entry["file"] for entry in manifest["shards"]}


class TestIngestCrash:
    @pytest.mark.parametrize("step", INGEST_COMMIT_STEPS)
    def test_sigkill_at_every_commit_step(self, tmp_path, step):
        arch = tmp_path / "arch"
        live = LiveArchive.create(arch)
        live.append_batch(
            {"b0": from_records(node_records("01-01"))}
        )
        before = rendering(arch)
        crash_log = write_log(node_records("01-02", t0=9.0), tmp_path / "batch")

        child = subprocess.run(
            [sys.executable, "-c", _INGEST_DRIVER, str(arch), str(crash_log), step, SRC],
            capture_output=True,
        )
        assert child.returncode == -9, child.stderr.decode()

        reopened = LiveArchive.open(arch)  # sweeps the crash's leftovers
        assert not list(arch.glob("*.tmp"))
        on_disk = {p.name for p in arch.glob("*.npz")}
        assert on_disk == {e["file"] for e in reopened.manifest["shards"]}

        committed = step == "manifest-committed"  # kill fired after the swap
        if committed:
            assert reopened.committed_batches == ["b-crash", "b0"]
        else:
            assert reopened.committed_batches == ["b0"]
            assert rendering(arch) == before  # pre-commit crash: old state

        # The resume path: blindly replay the interrupted append.
        report = reopened.append_batch({"b-crash": read_log_file(crash_log)})
        if committed:
            assert report.deduplicated == ["b-crash"]  # ledger stops the dup
        else:
            assert report.committed == ["b-crash"]

        # Either way the archive converges on the uninterrupted outcome.
        clean = tmp_path / "clean"
        ref = LiveArchive.create(clean)
        ref.append_batch({"b0": from_records(node_records("01-01"))})
        ref.append_batch({"b-crash": read_log_file(crash_log)})
        assert rendering(arch) == rendering(clean)


class TestCompactionCrash:
    @pytest.mark.parametrize("step", COMPACT_COMMIT_STEPS)
    def test_sigkill_at_every_commit_step(self, tmp_path, step):
        arch = tmp_path / "arch"
        live = LiveArchive.create(arch)
        live.append_batch(
            {"b0": from_records(node_records("01-01"))}
        )
        live.append_batch(
            {
                "b1": from_records(node_records("01-01", 3, 50.0)),
                "b2": from_records(node_records("01-02", 2, 3.0)),
            }
        )
        expected = rendering(arch)

        child = subprocess.run(
            [sys.executable, "-c", _COMPACT_DRIVER, str(arch), step, SRC],
            capture_output=True,
        )
        assert child.returncode == -9, child.stderr.decode()

        reopened = LiveArchive.open(arch)
        assert not list(arch.glob("*.tmp"))
        on_disk = {p.name for p in arch.glob("*.npz")}
        assert on_disk == {e["file"] for e in reopened.manifest["shards"]}
        # Whichever side of the commit point the kill landed on, the
        # record population is untouched — compaction moves bytes, never
        # creates or destroys them.
        assert rendering(arch) == expected

        report = compact_archive(arch)  # finish (or redo) the pass
        if report.n_components:  # pre-commit crash: work still to do
            assert report.segments_written >= 1
        assert rendering(arch) == expected
        final = LiveArchive.open(arch).manifest
        covered = [
            node
            for entry in final["shards"]
            for node in entry.get("nodes") or [entry["node"]]
        ]
        assert sorted(covered) == ["01-01", "01-02"]  # single coverage


class TestTornFiles:
    def test_torn_temp_segment_is_swept(self, tmp_path):
        live = LiveArchive.create(tmp_path)
        live.append_batch(
            {"b0": from_records(node_records("01-01"))}
        )
        (real,) = sorted(tmp_path.glob("*.npz"))
        torn = tmp_path / "seg-00000042-L0.npz.tmp"
        torn.write_bytes(real.read_bytes())
        chaos.tear_file(torn, drop_bytes=64)  # crash mid-append
        before = rendering(tmp_path)
        removed = LiveArchive.open(tmp_path).sweep()
        assert not torn.exists()
        assert removed == []  # open() already swept it
        assert rendering(tmp_path) == before

    def test_torn_manifest_temp_never_shadows_the_manifest(self, tmp_path):
        live = LiveArchive.create(tmp_path)
        live.append_batch(
            {"b0": from_records(node_records("01-01"))}
        )
        fingerprint = live.fingerprint()
        stray = tmp_path / "tmpabc123.tmp"
        stray.write_text('{"format": "garbage"')  # torn mid-write
        reopened = LiveArchive.open(tmp_path)
        assert not stray.exists()
        assert reopened.fingerprint() == fingerprint
