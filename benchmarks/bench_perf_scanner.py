"""Performance bench: the scanner verify kernel, reference vs vectorized.

The scan loop is the hot path of the bit-accurate simulator.  The gated
test times the same multi-pattern region scan through both registered
implementations of the ``scan.scan_region`` kernel — the per-word Python
oracle and the whole-array compare + ``flatnonzero`` rewrite, which XORs
only the hits — asserts their hits are identical, and gates on a 10x
speedup floor.  The 1 MiB region is one ``MemoryScanner`` verify block
(``SCAN_BLOCK_WORDS``); the 16 MB clean-pass bench runs the scanner's
block loop end to end.

Every gated bench in this suite emits the same bench-JSON counter
schema through ``benchmark.extra_info``: ``speedup``, ``baseline_s``,
``candidate_s``, ``target``, and a ``gate`` verdict CI asserts on.
"""

from __future__ import annotations

import time

import numpy as np

from repro.dram import BitSwizzle, make_device
from repro.kernels.scan import hit_bit_positions, scan_region
from repro.scanner import AlternatingPattern, MemoryScanner

#: ISSUE acceptance target: vectorized verify over the scalar oracle.
SPEEDUP_TARGET = 10.0

#: Region size for the gated comparison: big enough that the reference
#: loop runs O(100ms) per pass, small enough to keep CI fast.
N_WORDS = 1 << 18
N_FAULTS = 256
PATTERNS = (0xAAAAAAAA, 0x55555555, 0x00000000, 0xFFFFFFFF)


def _best_of(fn, rounds: int = 3):
    best, value = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def _faulty_region(rng) -> np.ndarray:
    words = np.full(N_WORDS, PATTERNS[0], dtype=np.uint32)
    where = rng.choice(N_WORDS, N_FAULTS, replace=False)
    bits = rng.integers(0, 32, N_FAULTS).astype(np.uint32)
    words[where] ^= np.uint32(1) << bits
    return words


def test_perf_scanner_verify_kernel_speedup(benchmark):
    """Gate: vectorized region scan >= 10x the per-word reference."""
    rng = np.random.default_rng(2016)
    region = _faulty_region(rng)

    baseline_s, ref_hits = _best_of(
        lambda: scan_region.reference(region, PATTERNS), rounds=2
    )
    candidate_s, vec_hits = benchmark.pedantic(
        lambda: _best_of(lambda: scan_region.vectorized(region, PATTERNS)),
        rounds=1,
        iterations=1,
    )

    # Equivalence first: every pass, every hit, bit for bit — including
    # the recovered bit positions.
    assert ref_hits == vec_hits
    assert len(vec_hits[0]) == N_FAULTS
    for ref_pass, vec_pass in zip(ref_hits, vec_hits):
        ref_bits = hit_bit_positions.reference(ref_pass.flip_mask)
        vec_bits = hit_bit_positions.vectorized(vec_pass.flip_mask)
        assert all(np.array_equal(a, b) for a, b in zip(ref_bits, vec_bits))

    speedup = baseline_s / candidate_s
    benchmark.extra_info.update(
        {
            "speedup": speedup,
            "baseline_s": baseline_s,
            "candidate_s": candidate_s,
            "target": SPEEDUP_TARGET,
            "gate": "pass" if speedup >= SPEEDUP_TARGET else "fail",
        }
    )
    print(
        f"\nverify kernel: reference {baseline_s * 1e3:.1f} ms vs "
        f"vectorized {candidate_s * 1e3:.2f} ms -> {speedup:.0f}x "
        f"(target >= {SPEEDUP_TARGET:.0f}x) over {N_WORDS} words x "
        f"{len(PATTERNS)} patterns"
    )
    assert speedup >= SPEEDUP_TARGET, (
        f"vectorized verify only {speedup:.1f}x faster than reference "
        f"(target {SPEEDUP_TARGET}x)"
    )


def test_perf_scanner_16mb_clean_pass(benchmark):
    device = make_device(16, swizzle=BitSwizzle.identity())
    scanner = MemoryScanner(device, AlternatingPattern(), node="05-05")

    def one_session():
        return scanner.run(start_hours=0.0, max_iterations=4)

    result = benchmark(one_session)
    assert result.errors == []
    assert result.iterations == 4


def test_perf_device_read_block(benchmark):
    device = make_device(64, swizzle=BitSwizzle.identity())
    device.fill(0xFFFFFFFF)
    out = benchmark(device.read_block)
    assert out.shape[0] == device.n_words
