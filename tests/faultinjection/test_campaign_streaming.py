"""Streaming campaign execution.

``run_campaign(stream_to=...)`` must produce the same archive as the
in-memory batch path, record for record — while the parent never holds
more than one flush window of records.  These tests pin:

* bit-identical per-node text renderings, streamed vs batch;
* the exactly-once resume contract: a second run on the same directory
  skips every unit its ledger holds and leaves the archive unchanged;
* the ownership check: a directory holding another campaign (or records
  of no campaign) is refused before any unit runs;
* the CLI wiring (`repro campaign --stream-out`, `repro ingest`,
  `repro compact`).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cache import config_digest
from repro.cli import main as cli_main
from repro.core.errors import CheckpointError
from repro.faultinjection import campaign as campaign_module
from repro.faultinjection import run_campaign
from repro.faultinjection.campaign import CampaignMetrics
from repro.faultinjection.config import quick_campaign_config
from repro.logs.columnar import ColumnarArchive, RecordColumns
from repro.logs.ingest import LiveArchive


def rendering_of_columnar(directory, out) -> dict[str, str]:
    ColumnarArchive.load(directory).write_text_directory(out)
    return {p.name: p.read_text() for p in out.glob("*.log")}


def rendering_of_batch(result, out) -> dict[str, str]:
    result.archive.write_text_directory(out)
    return {p.name: p.read_text() for p in out.glob("*.log")}


@pytest.fixture(scope="module")
def streamed(tmp_path_factory):
    """One streamed quick campaign, shared by the module."""
    stream_dir = tmp_path_factory.mktemp("streamed-campaign") / "archive"
    result = run_campaign(
        quick_campaign_config(),
        stream_to=stream_dir,
        stream_flush_nodes=200,
    )
    return result, stream_dir


class TestStreamedParity:
    def test_streamed_matches_batch_bit_for_bit(
        self, quick_campaign, streamed, tmp_path
    ):
        result, stream_dir = streamed
        assert result.degraded is None
        assert result.n_observations == quick_campaign.n_observations
        assert sorted(result.tracks) == sorted(quick_campaign.tracks)
        expected = rendering_of_batch(quick_campaign, tmp_path / "batch")
        assert rendering_of_columnar(stream_dir, tmp_path / "streamed") == expected

    def test_streamed_result_carries_a_columnar_archive(self, streamed):
        result, stream_dir = streamed
        assert isinstance(result.archive, ColumnarArchive)
        live = LiveArchive.open(stream_dir)
        ledger = set(live.committed_batches)
        assert "catalogue" in ledger
        assert f"campaign:{config_digest(result.config)}" in ledger
        assert {f"unit:{name}" for name in result.tracks} <= ledger

    def test_compaction_preserves_the_streamed_archive(
        self, quick_campaign, streamed, tmp_path
    ):
        import shutil

        _, stream_dir = streamed
        work = tmp_path / "work"
        shutil.copytree(stream_dir, work)
        report = LiveArchive.open(work).compact()
        assert report.segments_written >= 1
        expected = rendering_of_batch(quick_campaign, tmp_path / "batch")
        assert rendering_of_columnar(work, tmp_path / "compacted") == expected


class TestExactlyOnceResume:
    def test_resume_with_archive_deduplicates_everything(
        self, quick_campaign, streamed, tmp_path
    ):
        result, stream_dir = streamed
        before = LiveArchive.open(stream_dir)
        generation = before.generation
        n_records = before.manifest["n_records"]

        resumed = run_campaign(quick_campaign_config(), stream_to=stream_dir)
        assert resumed.metrics.n_resumed == len(result.tracks)
        assert resumed.n_observations == quick_campaign.n_observations

        after = LiveArchive.open(stream_dir)
        assert after.manifest["n_records"] == n_records  # zero duplicates
        # Every unit is skipped and the catalogue replay deduplicated:
        # the record population and batch ledger are unchanged.
        assert sorted(after.committed_batches) == sorted(before.committed_batches)
        expected = rendering_of_batch(quick_campaign, tmp_path / "batch")
        assert rendering_of_columnar(stream_dir, tmp_path / "resumed") == expected
        assert after.generation >= generation

    def test_resumed_summary_counts_only_simulated_nodes(self, streamed):
        """Regression: re-running a complete stream reported every node as
        simulated, with a records/s rate for work it never did."""
        result, stream_dir = streamed
        resumed = run_campaign(quick_campaign_config(), stream_to=stream_dir)
        summary = resumed.metrics.summary()
        assert summary.startswith("0 nodes in")
        assert "records/s" not in summary
        assert f"{len(result.tracks)} units resumed from the stream" in summary
        assert resumed.metrics.n_nodes == len(result.tracks)
        assert resumed.metrics.n_records == result.metrics.n_records

    def test_summary_of_a_partial_resume(self):
        metrics = CampaignMetrics(
            backend="serial",
            workers=1,
            wall_seconds=2.0,
            simulate_seconds=1.0,
            n_records=100,
            n_observations=100,
            n_nodes=10,
        )
        assert metrics.summary() == (
            "10 nodes in 2.00 s (serial, workers=1; 100 records, 50 records/s)"
        )
        partial = replace(metrics, n_resumed=3)
        assert partial.summary() == (
            "7 nodes in 2.00 s (serial, workers=1; 100 records) "
            "[3 units resumed from the stream]"
        )


class TestStreamOwnership:
    def _refused(self, stream_dir, monkeypatch, config):
        """Run ``config`` into ``stream_dir``; return the units it simulated."""
        simulated = []
        real = campaign_module._simulate_node

        def recording(ctx, name):
            simulated.append(name)
            return real(ctx, name)

        monkeypatch.setattr(campaign_module, "_simulate_node", recording)
        before = LiveArchive.open(stream_dir).manifest
        with pytest.raises(CheckpointError):
            run_campaign(config, stream_to=stream_dir)
        assert LiveArchive.open(stream_dir).manifest == before
        return simulated

    def test_another_campaigns_stream_is_refused(self, streamed, monkeypatch):
        """Regression: seed 2 streamed into seed 1's directory returned
        seed 1's records under seed 2's tracks, with no error."""
        _, stream_dir = streamed
        other = quick_campaign_config(seed=2)
        assert self._refused(stream_dir, monkeypatch, other) == []

    def test_records_of_no_campaign_are_refused(self, tmp_path, monkeypatch):
        """An ingest archive, or one streamed before the campaign marker
        existed, holds batches no ``campaign:`` entry claims."""
        from repro.core.records import ErrorRecord

        stream_dir = tmp_path / "ingested"
        rows = RecordColumns.from_records(
            [ErrorRecord(1.0, "01-02", 4096, 7, 0xFF, 0xFE, 50.0, 1)]
        )
        LiveArchive.create(stream_dir).append_batch({"unit:01-02": rows})
        config = quick_campaign_config()
        assert self._refused(stream_dir, monkeypatch, config) == []


class TestStreamingCli:
    def test_campaign_stream_out_then_compact_and_query(self, tmp_path, capsys):
        stream_dir = tmp_path / "live"
        assert (
            cli_main(
                [
                    "--quick",
                    "campaign",
                    "--stream-out",
                    str(stream_dir),
                    "--stream-flush-nodes",
                    "300",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "streamed" in out and "repro compact" in out

        assert cli_main(["compact", "--dir", str(stream_dir)]) == 0
        assert "merged" in capsys.readouterr().out
        assert cli_main(["compact", "--dir", str(stream_dir)]) == 0
        assert "fully compacted" in capsys.readouterr().out

        assert (
            cli_main(
                ["query", "--dir", str(stream_dir), "--preset", "errors-by-node"]
            )
            == 0
        )
        assert '"shards_scanned"' in capsys.readouterr().out

    def test_campaign_requires_an_output(self, capsys):
        assert cli_main(["--quick", "campaign"]) == 2
        assert "--stream-out" in capsys.readouterr().err

    def test_ingest_roundtrip_with_dedup(self, tmp_path, capsys):
        from repro.core.records import EndRecord, ErrorRecord, StartRecord
        from repro.logs.store import LogArchive

        src = tmp_path / "text"
        archive = LogArchive()
        for node, t0 in (("01-01", 0.0), ("01-02", 5.0)):
            archive.append(StartRecord(t0, node, 3072, 40.0))
            archive.append(
                ErrorRecord(
                    timestamp_hours=t0 + 1.0,
                    node=node,
                    virtual_address=4096,
                    physical_page=7,
                    expected=0xFF,
                    actual=0xFE,
                    temperature_c=51.25,
                    repeat_count=3,
                )
            )
            archive.append(EndRecord(t0 + 2.0, node, 41.0))
        archive.sort()
        archive.write_directory(src)

        live = tmp_path / "live"
        assert cli_main(["ingest", "--dir", str(live), "--from", str(src)]) == 0
        assert "committed 2 batch(es)" in capsys.readouterr().out
        assert cli_main(["ingest", "--dir", str(live), "--from", str(src)]) == 0
        assert "skipped 2 already-committed" in capsys.readouterr().out

        back = tmp_path / "back"
        ColumnarArchive.load(live).write_text_directory(back)
        assert {p.name: p.read_text() for p in back.glob("*.log")} == {
            p.name: p.read_text() for p in src.glob("*.log")
        }

    def test_ingest_missing_source_dir(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert (
            cli_main(["ingest", "--dir", str(tmp_path / "d"), "--from", str(missing)])
            == 2
        )
        assert "no such directory" in capsys.readouterr().err
