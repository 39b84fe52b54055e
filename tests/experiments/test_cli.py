"""CLI smoke tests (quick campaign to stay fast)."""

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig06" in out
        assert "table2" in out

    def test_report_quick(self, capsys):
        assert main(["--quick", "report"]) == 0
        out = capsys.readouterr().out
        assert "raw error log lines" in out

    def test_experiment_quick(self, capsys):
        assert main(["--quick", "experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "0xffff7bff" in out

    def test_degraded_report_is_flagged(self, monkeypatch, capsys):
        """A campaign that lost a node still prints its report, then flags
        it: DEGRADED on stderr and exit 3, as `campaign` does."""
        from repro import chaos
        from repro.experiments import runner

        real_run_campaign = runner.run_campaign
        monkeypatch.setattr(
            runner,
            "run_campaign",
            lambda config, **kwargs: real_run_campaign(
                config, chaos=chaos.always_raise("01-02"), **kwargs
            ),
        )
        assert main(["--quick", "--no-cache", "--retries", "0", "report"]) == 3
        captured = capsys.readouterr()
        assert "raw error log lines" in captured.out
        assert "DEGRADED" in captured.err

    def test_lost_unit_degrades_by_default(self, node_01_02_raises, capsys):
        """Without --retries a lost node is still DEGRADED with exit 3,
        never a traceback."""
        assert main(["--quick", "--no-cache", "report"]) == 3
        err = capsys.readouterr().err
        assert "DEGRADED" in err
        assert "RuntimeError" in err

    def test_unknown_experiment(self, capsys):
        """Rejected cleanly before the campaign runs (no traceback)."""
        assert main(["--quick", "experiment", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_campaign_dump(self, tmp_path, capsys):
        out_dir = tmp_path / "logs"
        assert main(["--quick", "--seed", "3", "campaign", "--out", str(out_dir)]) == 0
        logs = list(out_dir.glob("*.log"))
        assert logs, "per-node log files expected"
        out = capsys.readouterr().out
        assert "raw error lines" in out
