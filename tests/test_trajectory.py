"""``benchmarks/trajectory.py check`` on synthetic entries (no perfbench run)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "trajectory.py"


@pytest.fixture
def trajectory(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPO", tmp_path)
    return module


def entry(wall_ref: float, ratios: list[float], sha: str = "a" * 40) -> dict:
    run = {
        "meta": {"rep_wall_s": [2 * r for r in ratios], "rep_ref_s": [2.0] * len(ratios)},
        "result": {"metrics": {"wall_ref": {"value": wall_ref, "unit": "ratio"}}},
    }
    return {"git_sha": sha, "dirty": False, "nproc": 2, "untraced": run, "traced": run}


def write(tmp_path: Path, entries: list[dict]) -> None:
    (tmp_path / "BENCH_w.json").write_text(json.dumps({"workload": "w", "entries": entries}))


def test_spread_is_the_quartile_distance_of_the_ratios(trajectory):
    assert trajectory.spread(entry(30.0, [28.0, 29.0, 30.0, 31.0, 32.0])) == pytest.approx(2.0)


@pytest.mark.parametrize(
    "after, code",
    [(25.0, 0), (30.0, 0), (31.9, 0), (32.0, 0), (32.1, 1), (40.0, 1)],
)
def test_check_flags_a_slowdown_beyond_the_previous_spread(
    trajectory, tmp_path, after, code, capsys
):
    # Previous entry: wall_ref 30 with ratios whose quartiles are 29 and 31.
    write(tmp_path, [entry(30.0, [28.0, 29.0, 30.0, 31.0, 32.0]), entry(after, [after] * 5)])
    assert trajectory.main(["check", "--workload", "w"]) == code
    assert ("slower" in capsys.readouterr().out) == bool(code)


def test_check_compares_only_the_last_two_entries(trajectory, tmp_path):
    write(tmp_path, [entry(10.0, [10.0] * 5), entry(30.0, [29.0, 30.0, 31.0]), entry(30.5, [30.5])])
    assert trajectory.main(["check", "--workload", "w"]) == 0


def test_check_without_history(trajectory, tmp_path):
    assert trajectory.main(["check", "--workload", "w"]) == 2
    write(tmp_path, [entry(30.0, [30.0])])
    assert trajectory.main(["check", "--workload", "w"]) == 0
