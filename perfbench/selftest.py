"""Show that the benchmark's output checks catch wrong answers.

    python3 perfbench/selftest.py

For each workload, one short run with ``--plant`` corrupts exactly one
answer the workload checks (a claim verdict, a ``/query`` answer, a
scanner hit) and must report exactly one failed operation and
``correct: false``.  A last run from a directory holding only
``BENCHMARK.json`` and the benchmark must exit non-zero without printing
a result.  Exits non-zero if any of this does not hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _result(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for workload in spec["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seconds", "1", "--plant"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        result = _result(proc.stdout)
        caught = (
            proc.returncode == 0
            and result is not None
            and result["failed"] == 1
            and result["correct"] is False
        )
        ok &= caught
        summary = {k: result[k] for k in ("correct", "attempted", "failed")} if result else None
        print(f"{name}: planted wrong answer {'caught' if caught else 'MISSED'}: {summary}")

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", spec["workloads"][0]["name"],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    refused = proc.returncode != 0 and _result(proc.stdout) is None
    ok &= refused
    print(f"without the program: exit {proc.returncode}, {'no result' if refused else 'PRINTED A RESULT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
