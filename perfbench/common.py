"""Shared pieces of the benchmark: paths, statistics, the repetition loop."""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Root of the checkout the benchmark measures.
ROOT = Path(__file__).resolve().parent.parent

#: The study's seed, the default of ``--seed``.
DEFAULT_SEED = 20160213

#: A seed kept out of tuning; its expected values are recorded too.
HELD_OUT_SEED = 11

#: Recorded expected values (see ``record.py``).
EXPECTED_PATH = Path(__file__).with_name("expected.json")

MIB = float(1 << 20)
GIB = float(1 << 30)

#: Percentiles tried for the tail, highest first.
_TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """(percentile, value, n): the highest ladder percentile with at
    least ten samples beyond it, by the nearest-rank rule."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    for pct in _TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10.0:
            break
    rank = max(1, math.ceil(n * pct / 100.0))
    return pct, float(ordered[rank - 1]), n


def warn(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


@dataclass
class RepOutcome:
    """What one repetition of a workload measured and checked."""

    wall_s: float
    attempted: int = 0
    failed: int = 0
    #: Workload-specific measurements (latency samples, phase times, counts).
    data: dict = field(default_factory=dict)
    #: Mean of the reference takes just before and just after it.
    ref_s: float = 0.0

    @property
    def wall_ref(self) -> float:
        return self.wall_s / self.ref_s

    def fail(self, what: str, detail: str = "") -> None:
        self.failed += 1
        if self.failed <= 5:
            warn(f"failed: {what}{': ' + detail if detail else ''}")


def reference_s() -> float:
    """Seconds a fixed reference job takes on this host right now.

    Each core of the shared host slows down by up to half for seconds to
    minutes at a time, independently of the other core, and CPU time
    slows with wall time, so repetition times are divided by this job
    timed around each repetition (see README.md, Noise).  Half the job
    is interpreted Python (arithmetic, dict and string churn, a sort),
    half NumPy streaming over a 2 MB array, as the workloads mix both;
    the array is small so that it does not move peak RSS.  Median of
    three takes of about 40 ms.
    """
    takes = []
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        total = 0
        for i in range(60_000):
            total += i * 7 % 13
            table[i & 1023] = str(i)
        sorted(table.values())
        words = np.arange(1 << 19, dtype=np.uint32)
        for _ in range(200):
            words ^= np.uint32(0xFFFF)
        takes.append(time.perf_counter() - start)
    return statistics.median(takes)


def timed_rep(rep, index: int, before: float) -> tuple[RepOutcome, float]:
    """Run ``rep(index)`` and the reference after it; ``before`` is the
    reference taken just before.  Returns the outcome and that after."""
    outcome = rep(index)
    after = reference_s()
    outcome.ref_s = (before + after) / 2
    return outcome, after


def run_reps(rep, seconds: float) -> tuple[list[RepOutcome], float]:
    """Repeat ``rep(index)`` while another repetition fits in ``seconds``.

    At least one repetition runs; the estimate of the next one is the
    longest so far, checks, preparation and reference takes included.
    Returns the outcomes and the last reference take.
    """
    outcomes: list[RepOutcome] = []
    start = time.perf_counter()
    longest = 0.0
    ref = reference_s()
    while True:
        began = time.perf_counter()
        outcome, ref = timed_rep(rep, len(outcomes), ref)
        outcomes.append(outcome)
        longest = max(longest, time.perf_counter() - began)
        if time.perf_counter() - start + longest > seconds:
            return outcomes, ref
