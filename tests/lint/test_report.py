"""Reporters, exit codes, and the ``repro lint`` CLI contract."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.lint import (
    render_json,
    render_sarif,
    render_text,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

CLEAN = "import numpy as np\n\n\ndef f(seed):\n    return np.random.default_rng(seed)\n"
DIRTY = "import random\n\n\ndef f(xs):\n    return random.choice(xs)\n"
SUPPRESSED = (
    "import random\n\n\ndef f(xs):\n"
    "    return random.choice(xs)  # repro: noqa[DET001]: demo\n"
)
BROKEN = "def f(:\n"


def _tree(tmp_path, files):
    root = tmp_path / "tree"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


class TestExitCodes:
    def test_clean_is_zero(self, tmp_path):
        root = _tree(tmp_path, {"ok.py": CLEAN})
        assert run_lint([root]).exit_code == 0

    def test_findings_are_one(self, tmp_path):
        root = _tree(tmp_path, {"bad.py": DIRTY})
        assert run_lint([root]).exit_code == 1

    def test_suppressed_findings_are_zero(self, tmp_path):
        root = _tree(tmp_path, {"ok.py": SUPPRESSED})
        result = run_lint([root])
        assert result.exit_code == 0
        assert len(result.suppressed) == 1

    def test_internal_error_is_two(self, tmp_path):
        root = _tree(tmp_path, {"broken.py": BROKEN})
        result = run_lint([root])
        assert result.exit_code == 2
        assert "syntax error" in result.errors[0].message

    def test_unknown_rule_selection_is_two(self, tmp_path):
        from repro.lint import LintConfig

        root = _tree(tmp_path, {"ok.py": CLEAN})
        result = run_lint([root], LintConfig(rules=("NOPE999",)))
        assert result.exit_code == 2


class TestJsonReporter:
    def test_schema_keys_and_version(self, tmp_path):
        root = _tree(tmp_path, {"bad.py": DIRTY, "ok.py": SUPPRESSED})
        payload = json.loads(render_json(run_lint([root])))
        assert payload["schema_version"] == 2
        assert set(payload) == {
            "schema_version", "clean", "files_scanned", "analysis",
            "findings", "suppressed", "errors", "summary",
        }
        assert payload["clean"] is False
        assert payload["files_scanned"] == 2
        assert payload["summary"]["by_rule"] == {"DET001": 1}
        finding = payload["findings"][0]
        assert set(finding) == {
            "rule", "path", "line", "col", "message", "suppressed", "reason",
        }
        assert finding["rule"] == "DET001"
        assert finding["suppressed"] is False
        assert payload["suppressed"][0]["reason"] == "demo"

    def test_analysis_counters(self, tmp_path):
        root = _tree(tmp_path, {"bad.py": DIRTY, "ok.py": CLEAN})
        payload = json.loads(render_json(run_lint([root])))
        analysis = payload["analysis"]
        assert analysis["modules_total"] == 2
        assert analysis["modules_analyzed"] == 2
        assert analysis["modules_cached"] == 0
        assert analysis["cold"] is True
        assert analysis["duration_s"] >= 0

    def test_clean_payload(self, tmp_path):
        root = _tree(tmp_path, {"ok.py": CLEAN})
        payload = json.loads(render_json(run_lint([root])))
        assert payload["clean"] is True
        assert payload["findings"] == []
        assert payload["errors"] == []

    def test_errors_are_reported(self, tmp_path):
        root = _tree(tmp_path, {"broken.py": BROKEN})
        payload = json.loads(render_json(run_lint([root])))
        assert payload["clean"] is False
        assert len(payload["errors"]) == 1
        assert set(payload["errors"][0]) == {"path", "message"}


class TestSarifReporter:
    def test_minimal_valid_run(self, tmp_path):
        root = _tree(tmp_path, {"bad.py": DIRTY, "ok.py": SUPPRESSED})
        payload = json.loads(render_sarif(run_lint([root])))
        assert payload["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in payload["$schema"]
        (run,) = payload["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == ["DET001"]
        assert run["invocations"][0]["executionSuccessful"] is True
        live = [r for r in run["results"] if "suppressions" not in r]
        muted = [r for r in run["results"] if "suppressions" in r]
        assert len(live) == 1 and len(muted) == 1
        loc = live[0]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("bad.py")
        assert loc["region"] == {"startLine": 5, "startColumn": 12}
        assert muted[0]["suppressions"][0]["justification"] == "demo"

    def test_errors_fail_the_invocation(self, tmp_path):
        root = _tree(tmp_path, {"broken.py": BROKEN})
        payload = json.loads(render_sarif(run_lint([root])))
        invocation = payload["runs"][0]["invocations"][0]
        assert invocation["executionSuccessful"] is False
        assert invocation["toolExecutionNotifications"]


class TestTextReporter:
    def test_finding_line_format(self, tmp_path):
        root = _tree(tmp_path, {"bad.py": DIRTY})
        text = render_text(run_lint([root]))
        line = text.splitlines()[0]
        # file:line:col RULE-ID message
        assert "bad.py:5:12 DET001 " in line
        assert "1 files scanned: 1 finding" in text

    def test_clean_summary(self, tmp_path):
        root = _tree(tmp_path, {"ok.py": CLEAN})
        assert "1 files scanned: clean" in render_text(run_lint([root]))

    def test_show_suppressed(self, tmp_path):
        root = _tree(tmp_path, {"ok.py": SUPPRESSED})
        result = run_lint([root])
        assert "suppressed (demo)" not in render_text(result)
        assert "suppressed (demo)" in render_text(result, show_suppressed=True)


class TestCli:
    """End-to-end through ``python -m repro lint``."""

    def _run(self, *argv, cwd=REPO_ROOT):
        import tempfile

        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        # Hermetic cache: never touch (or get poisoned by) the user's.
        env["REPRO_LINT_CACHE_DIR"] = tempfile.mkdtemp(prefix="lintcache-")
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", *argv],
            capture_output=True, text=True, env=env, cwd=cwd,
        )

    def test_dirty_file_exits_one_with_json(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(DIRTY, encoding="utf-8")
        proc = self._run(str(bad), "--format", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["clean"] is False
        assert payload["findings"][0]["rule"] == "DET001"
        # Single-file lint labels findings with the file, not its parent.
        assert payload["findings"][0]["path"].endswith("bad.py")

    def test_clean_file_exits_zero(self, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text(CLEAN, encoding="utf-8")
        proc = self._run(str(ok))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_syntax_error_exits_two(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text(BROKEN, encoding="utf-8")
        proc = self._run(str(broken))
        assert proc.returncode == 2

    def test_list_rules(self):
        proc = self._run("--list-rules")
        assert proc.returncode == 0
        for rule_id in (
            "DET001", "DET002", "DET003", "CON001", "CON002",
            "RES001", "RES002", "NPY001", "NPY002",
        ):
            assert rule_id in proc.stdout

    def test_rule_selection(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(DIRTY, encoding="utf-8")
        proc = self._run(str(bad), "--rules", "RES001")
        assert proc.returncode == 0  # DET001 not selected -> clean
