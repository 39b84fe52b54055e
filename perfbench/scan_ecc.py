"""scan-ecc: the bit-accurate scanner under beam flux, then ECC replay.

Inputs (generated here from the seed): for each simulated device, a
schedule of transient single-bit flips at ``BeamTestConfig``'s
accelerated upset rate plus a few stuck weak bits, and a corruption
population in the paper's mix (mostly single-bit errors, about 90% of
them 1->0 flips, and Table I's multi-bit patterns at the paper's rate).

One repetition: each device is scanned for a fixed number of passes by
``MemoryScanner.run`` with an injection hook that applies the schedule;
then the population is classified by ``compare_schemes`` (kernel path)
and a smaller one replayed by ``tradeoff_table`` (scalar codecs).  The
two ECC paths are timed apart because they differ ~300x per word.

Checks: the scanner's hits must equal, word for word, the flips the
schedule predicts (computed here, not by the program).  Every single-bit
word must be corrected by every code; the kernel path's per-word
outcomes must equal the scalar ``HammingSecded``/``ChipkillCode`` codecs
on a seeded sample; the replay's SECDED and chipkill rows must equal the
kernel path's counts on the same words.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from common import GIB, RepOutcome, load_expected, median
from spans import Stopwatch

# Sized so one repetition takes about 2 s on a 2-vCPU host, a third of
# it in each of the scan, the classify and the replay.
PASSES = 40
STUCK_PER_DEVICE = 3
N_CLASSIFY = 50_000
CLASSIFY_BATCHES = 4
N_REPLAY = 250
REPLAY_BATCHES = 2
#: Single-bit words checked against the scalar codecs (multi-bit: all).
SAMPLE_SINGLE = 200
#: 85 multi-bit errors among 58,559 independent ones (paper Sec III-C).
P_MULTIBIT = 85 / 58_559
#: Scanner pass duration (the study's 10 s write+verify cycle).
ITER_HOURS = 10.0 / 3600.0
_VIRTUAL_BASE = 0x3000_0000
_ONES = 0xFFFFFFFF

#: Table I: (expected, corrupted, occurrences).
TABLE_I = (
    (0x000016BB, 0x000016B8, 1),
    (0xFFFFFFFF, 0xFFFFEEFF, 2),
    (0x000003C1, 0x000003C2, 2),
    (0xFFFFFFFF, 0xFFFF7DFF, 4),
    (0xFFFFFFFF, 0xFFFFF5FF, 4),
    (0xFFFFFFFF, 0xFFFFF3FF, 7),
    (0xFFFFFFFF, 0xFFFFF9FF, 10),
    (0xFFFFFFFF, 0xFFFF77FF, 10),
    (0xFFFFFFFF, 0xFFFF7BFF, 36),
    (0xFFFFFFFF, 0xFFFF75FF, 1),
    (0xFFFFFFFF, 0xFFFFF1FF, 1),
    (0x00000461, 0x00006E61, 1),
    (0x00002957, 0x00002958, 1),
    (0x000071B2, 0x00007100, 1),
    (0x000002E4, 0x00000215, 1),
    (0x00006AB4, 0x00006A5A, 1),
    (0xFFFFFFFF, 0xFFFFFF00, 1),
    (0x00000058, 0xE6006358, 1),
)


# ---------------------------------------------------------------------------
# Input generation and the expected scanner hits (run by ``worker.py gen``)
# ---------------------------------------------------------------------------


def pattern_value(iteration: int) -> int:
    """The alternating pattern: all zeros on even passes, all ones on odd."""
    return 0 if iteration % 2 == 0 else _ONES


def expected_hits(schedule: dict) -> np.ndarray:
    """Rows (pass, word, expected, actual) the scanner must log, sorted.

    Pass ``i`` verifies the value written before it (``pattern_value(i-1)``)
    after the hook applied pass ``i``'s flips; stuck bits override the
    stored value from their installation pass on.
    """
    stuck: dict[int, tuple[int, int]] = {}
    rows = []
    flips_by_pass: dict[int, list[tuple[int, int]]] = {}
    for p, word, mask in zip(*(schedule[k].tolist() for k in ("flip_pass", "flip_word", "flip_mask"))):
        flips_by_pass.setdefault(p, []).append((word, mask))
    installs = sorted(
        zip(*(schedule[k].tolist() for k in ("stuck_pass", "stuck_word", "stuck_mask", "stuck_value")))
    )
    for iteration in range(1, PASSES + 1):
        while installs and installs[0][0] == iteration:
            _p, word, mask, value = installs.pop(0)
            old_mask, old_value = stuck.get(word, (0, 0))
            stuck[word] = (old_mask | mask, (old_value & ~mask) | value)
        written = pattern_value(iteration - 1)
        stored: dict[int, int] = {word: written for word in stuck}
        for word, mask in flips_by_pass.get(iteration, []):
            stored[word] = stored.get(word, written) ^ mask
        for word, value in stored.items():
            mask, level = stuck.get(word, (0, 0))
            observed = (value & ~mask) | level
            if observed != written:
                rows.append((iteration, word, written, observed))
    return np.array(sorted(rows), dtype=np.int64).reshape(-1, 4)


def _population(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    multibit = rng.random(n) < P_MULTIBIT
    one_to_zero = rng.random(n) < 0.9
    expected = np.where(one_to_zero, _ONES, 0).astype(np.uint64)
    actual = expected ^ np.left_shift(np.uint64(1), rng.integers(0, 32, size=n).astype(np.uint64))
    weights = np.array([occ for _e, _a, occ in TABLE_I], dtype=np.float64)
    picks = rng.choice(len(TABLE_I), size=int(multibit.sum()), p=weights / weights.sum())
    expected[multibit] = [TABLE_I[i][0] for i in picks]
    actual[multibit] = [TABLE_I[i][1] for i in picks]
    return expected, actual


def generate(seed: int, inputs: Path) -> dict:
    from repro.faultinjection.beam import BITS_PER_MB, BeamTestConfig

    beam = BeamTestConfig()
    rng = np.random.default_rng([seed % (1 << 63), 0x5CA2])
    n_words = beam.device_mb * 1024 * 1024 // 4
    upsets_per_pass = beam.field_rate_per_bit_hour * beam.acceleration * beam.device_mb * BITS_PER_MB * ITER_HOURS
    digest = hashlib.sha256()
    answers = hashlib.sha256()
    arrays: dict[str, np.ndarray] = {}
    for device in range(beam.n_devices):
        counts = rng.poisson(upsets_per_pass, size=PASSES)
        n = int(counts.sum())
        schedule = {
            "flip_pass": np.repeat(np.arange(1, PASSES + 1), counts),
            "flip_word": rng.integers(0, n_words, size=n),
            "flip_mask": np.left_shift(1, rng.integers(0, 32, size=n)),
            "stuck_pass": rng.integers(1, PASSES // 2, size=STUCK_PER_DEVICE),
            "stuck_word": rng.integers(0, n_words, size=STUCK_PER_DEVICE),
        }
        bits = np.left_shift(1, rng.integers(0, 32, size=STUCK_PER_DEVICE))
        schedule["stuck_mask"] = bits
        schedule["stuck_value"] = np.where(rng.random(STUCK_PER_DEVICE) < 0.5, bits, 0)
        hits = expected_hits(schedule)
        for key, value in schedule.items():
            arrays[f"d{device}_{key}"] = value.astype(np.int64)
            digest.update(value.astype(np.int64).tobytes())
        arrays[f"d{device}_hits"] = hits
        answers.update(hits.tobytes())
    for name, n in (("classify", N_CLASSIFY), ("replay", N_REPLAY)):
        expected, actual = _population(rng, n)
        arrays[f"{name}_expected"] = expected
        arrays[f"{name}_actual"] = actual
        digest.update(expected.tobytes() + actual.tobytes())
    single = np.flatnonzero(
        np.bitwise_count(arrays["classify_expected"] ^ arrays["classify_actual"]) == 1
    )
    multi = np.flatnonzero(
        np.bitwise_count(arrays["classify_expected"] ^ arrays["classify_actual"]) > 1
    )
    arrays["sample"] = np.sort(np.concatenate([multi, rng.choice(single, SAMPLE_SINGLE, replace=False)]))
    digest.update(arrays["sample"].tobytes())
    np.savez(inputs / "scan_ecc.npz", **arrays)
    digests = {"inputs": digest.hexdigest(), "answers": answers.hexdigest()}
    meta = {
        "n_devices": beam.n_devices,
        "device_mb": beam.device_mb,
        "upsets_per_pass": upsets_per_pass,
        "digests": digests,
    }
    (inputs / "scan_ecc.json").write_text(json.dumps(meta), encoding="utf-8")
    return digests


# ---------------------------------------------------------------------------
# Setup and one repetition (run by ``worker.py setup|run``)
# ---------------------------------------------------------------------------


class State:
    def __init__(self, seed: int, inputs: Path) -> None:
        from repro.core.events import MemoryError_
        from repro.dram import BitSwizzle, StuckCell, TransientFlip, make_device
        from repro.ecc.chipkill import ChipkillCode
        from repro.ecc.classify import compare_schemes
        from repro.ecc.hamming import DecodeStatus, HammingSecded
        from repro.ecc.overhead import tradeoff_table
        from repro.scanner import AlternatingPattern, MemoryScanner

        self.MemoryError_ = MemoryError_
        self.BitSwizzle = BitSwizzle
        self.StuckCell = StuckCell
        self.TransientFlip = TransientFlip
        self.make_device = make_device
        self.compare_schemes = compare_schemes
        self.tradeoff_table = tradeoff_table
        self.AlternatingPattern = AlternatingPattern
        self.MemoryScanner = MemoryScanner
        self.scalar = {"secded": HammingSecded(32), "chipkill": ChipkillCode()}
        self.corrected_status = (DecodeStatus.CORRECTED, DecodeStatus.CLEAN)
        self.detected_status = DecodeStatus.DETECTED
        self.seed = seed
        self.meta = json.loads((inputs / "scan_ecc.json").read_text(encoding="utf-8"))
        with np.load(inputs / "scan_ecc.npz") as npz:
            self.arrays = {key: npz[key] for key in npz.files}
        recorded = load_expected()["digests"]["scan-ecc"].get(str(seed))
        self.inputs_ok = recorded is None or recorded == self.meta["digests"]
        self.devices = self.allocate()

    def allocate(self) -> list:
        return [
            self.make_device(self.meta["device_mb"], swizzle=self.BitSwizzle.identity(), salt=d)
            for d in range(self.meta["n_devices"])
        ]

    def schedule(self, device: int) -> dict[int, list]:
        """Fault objects per pass (transient flips and stuck-bit installs)."""
        a = self.arrays
        out: dict[int, list] = {}
        for p, word, mask in zip(*(a[f"d{device}_{k}"].tolist() for k in ("flip_pass", "flip_word", "flip_mask"))):
            out.setdefault(p, []).append(self.TransientFlip(word, mask))
        for p, word, mask, value in zip(
            *(a[f"d{device}_{k}"].tolist() for k in ("stuck_pass", "stuck_word", "stuck_mask", "stuck_value"))
        ):
            out.setdefault(p, []).append(self.StuckCell(word, mask, value))
        return out

    def population(self, name: str) -> list:
        expected = self.arrays[f"{name}_expected"].tolist()
        actual = self.arrays[f"{name}_actual"].tolist()
        return [
            self.MemoryError_("01-01", float(i), float(i), _VIRTUAL_BASE + 4 * i, 0x8_0000, e, a)
            for i, (e, a) in enumerate(zip(expected, actual))
        ]

    def scalar_outcome(self, scheme: str, expected: int, actual: int) -> str:
        status = self.scalar[scheme].decode_flips(expected, expected ^ actual).status
        if status in self.corrected_status:
            return "corrected"
        return "detected" if status is self.detected_status else "sdc"


def setup(seed: int, inputs: Path, tmp) -> State:
    return State(seed, inputs)


def teardown(state: State) -> None:
    pass


def _batches(items: list, n: int) -> list[list]:
    size = -(-len(items) // n)
    return [items[i : i + size] for i in range(0, len(items), size)]


def _counts(summary) -> tuple[int, int, int]:
    return summary.corrected, summary.detected, summary.sdc


def _check_classify(state: State, outcome: RepOutcome, batch: list, offset: int, summaries: dict) -> None:
    n = len(batch)
    if _counts(summaries["none"]) != (0, 0, n):
        outcome.fail("classify none", f"{_counts(summaries['none'])}")
        return
    sample = state.arrays["sample"]
    sample = sample[(sample >= offset) & (sample < offset + n)] - offset
    for scheme in ("secded", "chipkill"):
        outcomes = [o.outcome.name.lower() for o in summaries[scheme].outcomes]
        if len(outcomes) != n:
            outcome.fail(f"classify {scheme}", f"{len(outcomes)} outcomes for {n} words")
            return
        for i, err in enumerate(batch):
            if bin(err.expected ^ err.actual).count("1") == 1 and outcomes[i] != "corrected":
                outcome.fail(f"classify {scheme}", f"single-bit word {offset + i} not corrected")
                return
        for i in sample.tolist():
            err = batch[i]
            if outcomes[i] != state.scalar_outcome(scheme, err.expected, err.actual):
                outcome.fail(f"classify {scheme}", f"word {offset + i} differs from the scalar codec")
                return


def _check_replay(state: State, outcome: RepOutcome, batch: list, rows: list) -> None:
    n = len(batch)
    single = sum(1 for err in batch if bin(err.expected ^ err.actual).count("1") == 1)
    kernel = state.compare_schemes(batch)
    by_name = {row.scheme: (row.corrected, row.detected, row.sdc) for row in rows}
    want = {
        "none": (0, 0, n),
        "secded (39,32)": _counts(kernel["secded"]),
        "chipkill x4 (32b)": _counts(kernel["chipkill"]),
    }
    for scheme, counts in want.items():
        if by_name.get(scheme) != counts:
            outcome.fail(f"replay {scheme}", f"{by_name.get(scheme)} != {counts}")
            return
    for scheme, counts in by_name.items():
        if sum(counts) != n or (scheme != "none" and counts[0] < single):
            outcome.fail(f"replay {scheme}", f"{counts} for {n} words, {single} single-bit")
            return


def rep(state: State, tracer, index: int, plant: bool) -> RepOutcome:
    # Set-up's devices serve the first repetition only; holding them
    # longer would make peak RSS depend on the number of repetitions.
    devices, state.devices = state.devices or state.allocate(), None
    classify = state.population("classify")
    replay = state.population("replay")
    schedules = [state.schedule(d) for d in range(len(devices))]
    watch = Stopwatch()
    outcome = RepOutcome(wall_s=0.0)
    if not state.inputs_ok:
        outcome.fail("inputs", f"generator output differs from the recording for seed {state.seed}")
    scan_s = classify_s = replay_s = 0.0
    passes = scan_errors = 0
    scanned_bytes = 0

    for d, (device, schedule) in enumerate(zip(devices, schedules)):

        def inject(iteration, dram, schedule=schedule):
            with tracer.span("harness.inject"):
                for fault in schedule.get(iteration, ()):
                    dram.apply(fault)

        scanner = state.MemoryScanner(
            device, state.AlternatingPattern(), node=f"{d + 1:02d}-01", iteration_hours=ITER_HOURS
        )
        outcome.attempted += 1
        try:
            with watch.section():
                began = time.perf_counter()
                result = scanner.run(0.0, PASSES, inject=inject)
                scan_s += time.perf_counter() - began
        except Exception as exc:  # noqa: BLE001 - a failed session is a failed operation
            outcome.fail(f"scan device {d}", repr(exc))
            continue
        passes += result.iterations
        scan_errors += len(result.errors)
        scanned_bytes += device.n_words * 4 * result.iterations
        got = sorted(
            (round(r.timestamp_hours / ITER_HOURS), (r.virtual_address - _VIRTUAL_BASE) // 4, r.expected, r.actual)
            for r in result.errors
        )
        if plant and d == 0:
            got = got[:-1]
        want = [tuple(row) for row in state.arrays[f"d{d}_hits"].tolist()]
        if result.iterations != PASSES or got != want:
            outcome.fail(f"scan device {d}", f"{len(got)} hits logged, {len(want)} injected")

    secded = [0, 0, 0]
    offset = 0
    for batch in _batches(classify, CLASSIFY_BATCHES):
        outcome.attempted += 1
        try:
            with watch.section():
                began = time.perf_counter()
                with tracer.span("ecc.classify"):
                    summaries = state.compare_schemes(batch)
                classify_s += time.perf_counter() - began
        except Exception as exc:  # noqa: BLE001
            outcome.fail("classify", repr(exc))
            continue
        secded = [a + b for a, b in zip(secded, _counts(summaries["secded"]))]
        with tracer.paused():
            _check_classify(state, outcome, batch, offset, summaries)
        offset += len(batch)

    for batch in _batches(replay, REPLAY_BATCHES):
        outcome.attempted += 1
        try:
            with watch.section():
                began = time.perf_counter()
                with tracer.span("ecc.replay"):
                    rows = state.tradeoff_table(batch)
                replay_s += time.perf_counter() - began
        except Exception as exc:  # noqa: BLE001
            outcome.fail("replay", repr(exc))
            continue
        with tracer.paused():
            _check_replay(state, outcome, batch, rows)

    outcome.wall_s = watch.total
    outcome.data = {
        "scan_s": scan_s,
        "scanned_bytes": scanned_bytes,
        "classify_s": classify_s,
        "replay_s": replay_s,
        "passes": passes,
        "scan_errors": scan_errors,
        "secded": secded,
    }
    return outcome


def extra_metrics(outcomes: list[RepOutcome]) -> dict:
    return {
        "scan_gb_s": median(o.data["scanned_bytes"] / GIB / o.data["scan_s"] for o in outcomes),
        "ecc_classify_words_s": median(N_CLASSIFY / o.data["classify_s"] for o in outcomes),
        "ecc_replay_words_s": median(N_REPLAY / o.data["replay_s"] for o in outcomes),
    }


def layer_metrics(outcome: RepOutcome, tracer) -> dict:
    self_s = tracer.by_name(tracer.self_times())
    corrected, detected, sdc = outcome.data["secded"]
    return {
        "scanner.passes": outcome.data["passes"],
        "scanner.self_s": sum(self_s.get("scanner.run", [])),
        "scanner.errors": outcome.data["scan_errors"],
        "ecc.classify_self_s": sum(self_s.get("ecc.classify", [])),
        "ecc.replay_s": sum(self_s.get("ecc.replay", [])),
        "ecc.replay_words": N_REPLAY,
        "ecc.corrected": corrected,
        "ecc.detected": detected,
        "ecc.sdc": sdc,
    }
