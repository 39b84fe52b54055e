"""The serving tier's import footprint.

`repro serve` and the live path load logs, query and server only.  A
stray import of the analysis package drags in scipy and the campaign
simulator, several times the start-up time and memory of the server
itself, so a fresh interpreter must come up without them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Packages the serving tier must not load.
HEAVY = ("repro.analysis", "repro.faultinjection", "scipy")


def test_server_import_loads_no_analysis_simulator_or_scipy():
    probe = (
        "import json, sys\n"
        "import repro.server.app\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    child = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(child.stdout) == []
