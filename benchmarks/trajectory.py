"""Keep perfbench results in committed files and check their trajectory.

    python3 benchmarks/trajectory.py record --workload live-serve [--root DIR]
    python3 benchmarks/trajectory.py check --workload live-serve

``record`` runs ``python3 perfbench/run.py --workload W --seconds 25``
in the checkout DIR (default: this one) twice, untraced and with
``--trace 1``, and appends one entry to ``BENCH_<W>.json`` at the root
of this repository.  An entry holds the commit DIR is at (``git_sha``),
whether its tree has uncommitted changes (``dirty``; the sha is then the
commit the changes are based on), the CPU count (``nproc``), and the
``meta`` and result lines of both runs.

``check`` compares the last entry with the one before it.  It exits 1
when the last ``wall_ref`` is worse than the previous one by more than
the previous entry's spread: the distance between the quartiles of its
per-repetition ``rep_wall_s / rep_ref_s`` ratios, the values whose
median ``wall_ref`` is.  It exits 0 otherwise, or when there is no
earlier entry to compare with, and 2 when the file is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SECONDS = 25


def bench_path(workload: str) -> Path:
    return REPO / f"BENCH_{workload}.json"


def _git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, capture_output=True, text=True, check=True
    ).stdout.strip()


def run_perfbench(root: Path, workload: str, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``root``: its meta and result lines."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    meta = next(json.loads(line)["meta"] for line in out if line.startswith('{"meta"'))
    return {"meta": meta, "result": json.loads(out[-1])}


def record(workload: str, root: Path) -> dict:
    """Run ``workload`` untraced and traced in ``root``; append the entry."""
    entry = {
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "dirty": bool(_git(root, "status", "--porcelain", "--untracked-files=no")),
        "nproc": os.cpu_count(),
        "untraced": run_perfbench(root, workload, 0),
        "traced": run_perfbench(root, workload, 1),
    }
    path = bench_path(workload)
    history = {"workload": workload, "entries": []}
    if path.exists():
        history = json.loads(path.read_text())
    history["entries"].append(entry)
    path.write_text(json.dumps(history, indent=1) + "\n")
    return entry


def wall_ref(entry: dict) -> float:
    return float(entry["untraced"]["result"]["metrics"]["wall_ref"]["value"])


def spread(entry: dict) -> float:
    """Quartile distance of the untraced run's per-repetition ratios."""
    meta = entry["untraced"]["meta"]
    ratios = np.asarray(meta["rep_wall_s"]) / np.asarray(meta["rep_ref_s"])
    q1, q3 = np.percentile(ratios, [25, 75])
    return float(q3 - q1)


def check(entries: list[dict]) -> tuple[bool, str]:
    """Whether the last entry holds against the one before it, and why."""
    if len(entries) < 2:
        return True, f"{len(entries)} entry, nothing to compare"
    previous, last = entries[-2], entries[-1]
    before, after, allowed = wall_ref(previous), wall_ref(last), spread(previous)
    verdict = (
        f"wall_ref {before:.3f} ({previous['git_sha'][:12]}) -> {after:.3f} "
        f"({last['git_sha'][:12]}{', dirty' if last['dirty'] else ''}); "
        f"previous spread {allowed:.3f}"
    )
    if after - before > allowed:
        return False, f"slower: {verdict}"
    return True, verdict


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run perfbench and append an entry")
    rec.add_argument("--workload", required=True)
    rec.add_argument("--root", type=Path, default=REPO, help="checkout to run perfbench in")
    chk = sub.add_parser("check", help="compare the last entry with the previous one")
    chk.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    if args.command == "record":
        entry = record(args.workload, args.root.resolve())
        print(f"{bench_path(args.workload).name}: wall_ref {wall_ref(entry):.3f} "
              f"at {entry['git_sha'][:12]}{' (dirty)' if entry['dirty'] else ''}")
        return 0
    path = bench_path(args.workload)
    if not path.exists():
        print(f"no {path.name}", file=sys.stderr)
        return 2
    ok, message = check(json.loads(path.read_text())["entries"])
    print(message)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
