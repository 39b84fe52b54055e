"""The fast examples run end to end against the current library.

``examples/`` scripts are documentation that executes; nothing else
imports them, so a renamed or deleted library name would only surface
when a reader runs one.  Each script here takes a few seconds.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["ecc_tradeoff.py", "sdc_impact.py", "scan_a_node.py"])
def test_example_exits_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_NO_CACHE"] = "1"
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / script)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
