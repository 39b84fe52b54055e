"""Record the expected values the benchmark checks against.

    python3 perfbench/record.py paper-verify SEED [SEED ...]
    python3 perfbench/record.py digests
    python3 perfbench/record.py fleet

``paper-verify`` simulates each campaign seed once and stores its
headline counts, Table I pattern counts and claim pass vector; the seeds
given replace the recorded set.
``digests`` generates the live-serve and scan-ecc inputs at the default
and the held-out seed and stores the digests of their inputs and of
their expected answers, so a drifting generator is caught.  Run these
two only when the reproduction's intended behaviour changes, never to
make a failing check pass.  ``fleet`` prints the figures of the
paper-scale campaign that live-serve's input volumes are taken from.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import DEFAULT_SEED, EXPECTED_PATH, HELD_OUT_SEED, ROOT  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))
os.environ["REPRO_NO_CACHE"] = "1"
os.environ.pop("REPRO_KERNELS", None)


def _load() -> dict:
    if EXPECTED_PATH.exists():
        return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    return {"paper-verify": {"seeds": {}}, "digests": {}}


def _save(expected: dict) -> None:
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def record_paper(seeds: list[int]) -> None:
    import paper_verify
    from spans import Tracer

    expected = _load()
    expected["paper-verify"]["seeds"] = {}
    for seed in seeds:
        state = paper_verify.State(seed, expected=None)
        began = time.perf_counter()
        wall_s, _result, extraction, verdicts = paper_verify.measure(state, Tracer(False))
        entry = paper_verify.headline(extraction)
        entry["claims"] = [v.claim.claim_id for v in verdicts]
        entry["passes"] = [int(v.passed) for v in verdicts]
        expected["paper-verify"]["seeds"][str(seed)] = entry
        _save(expected)
        print(
            f"seed {seed}: {sum(entry['passes'])}/{len(entry['passes'])} claims, "
            f"{wall_s:.2f} s timed, {time.perf_counter() - began:.2f} s total",
            flush=True,
        )


def record_digests() -> None:
    import live_serve
    import scan_ecc

    expected = _load()
    for name, module in (("live-serve", live_serve), ("scan-ecc", scan_ecc)):
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
                digests = module.generate(seed, Path(tmp))
            expected["digests"].setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {digests}", flush=True)
    _save(expected)


def print_fleet() -> None:
    import numpy as np
    from repro.faultinjection.campaign import run_campaign
    from repro.faultinjection.config import paper_campaign_config

    config = paper_campaign_config(DEFAULT_SEED)
    result = run_campaign(config, workers=1, backend="serial")
    frame = result.raw_frame()
    days = config.n_days
    codes, records = np.unique(frame.node_code, return_counts=True)
    order = np.argsort(-records)
    hot = [
        {
            "node": frame.node_names[codes[i]],
            "records_per_day": records[i] / days,
            "mean_rep": float(frame.repeat_count[frame.node_code == codes[i]].mean()),
        }
        for i in order[:4]
    ]
    sessions = sum(track.n_sessions for track in result.tracks.values())
    figures = {
        "days": days,
        "nodes": len(result.tracks),
        "sessions": sessions,
        "sessions_per_node_day": sessions / len(result.tracks) / days,
        "error_records": len(frame.time_hours),
        "raw_lines": int(frame.repeat_count.sum()),
        "hot_nodes": hot,
        "background_per_day": int(records[order[4:]].sum()) / days,
        "p_temp_na": float(np.isnan(frame.temperature_c).mean()),
        "p_multibit": float((np.bitwise_count(frame.expected ^ frame.actual) > 1).mean()),
        "p_one_to_zero": float(((frame.expected & ~frame.actual) != 0).mean()),
    }
    print(json.dumps(figures, indent=1))


if __name__ == "__main__":
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    if sys.argv[1:2] == ["paper-verify"]:
        record_paper([int(s) for s in sys.argv[2:]])
    elif sys.argv[1:] == ["digests"]:
        record_digests()
    elif sys.argv[1:] == ["fleet"]:
        print_fleet()
    else:
        sys.exit(__doc__)
