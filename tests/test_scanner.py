"""Simulation-core tests: the bit-accurate memory scanner.

Exercises the scan loop the way the paper's tool behaves in the field:
clean passes log nothing, an injected transient flip is reported once at
the right virtual address and timestamp, and stuck bits re-report on
every verify pass whose expected pattern disagrees with the stuck value.
"""

from __future__ import annotations

import pytest

from repro.core.records import EndRecord, ErrorRecord, StartRecord
from repro.dram.addressing import AddressMap, BitSwizzle
from repro.dram.device import DeviceSpec, SimulatedDram, make_device
from repro.dram.faults import MultiCellEvent, StuckCell, TransientFlip
from repro.kernels.scan import verify_words
from repro.scanner.patterns import AlternatingPattern, CountingPattern
from repro.scanner.tool import (
    SCAN_BLOCK_WORDS,
    MemoryScanner,
    ScanResult,
    schedule_hook,
)

ITER_HOURS = 10.0 / 3600.0


def _scanner(device, **kwargs):
    kwargs.setdefault("pattern", AlternatingPattern())
    kwargs.setdefault("node", "07-11")
    kwargs.setdefault("iteration_hours", ITER_HOURS)
    return MemoryScanner(device, **kwargs)


class TestCleanScan:
    def test_clean_pass_reports_zero_errors(self):
        device = make_device(1)
        result = _scanner(device).run(start_hours=100.0, max_iterations=8)
        assert result.errors == []
        assert result.iterations == 8

    def test_start_and_end_records_bracket_the_run(self):
        device = make_device(1)
        result = _scanner(device).run(start_hours=100.0, max_iterations=4)
        assert isinstance(result.start, StartRecord)
        assert isinstance(result.end, EndRecord)
        assert result.start.timestamp_hours == 100.0
        assert result.end.timestamp_hours == pytest.approx(
            100.0 + 5 * ITER_HOURS
        )
        assert result.records[0] is result.start
        assert result.records[-1] is result.end

    def test_counting_pattern_clean_scan(self):
        device = make_device(1)
        result = _scanner(device, pattern=CountingPattern()).run(
            start_hours=0.0, max_iterations=6
        )
        assert result.errors == []


class TestTransientInjection:
    def test_injected_flip_reported_at_right_address_and_time(self):
        device = make_device(1, swizzle=BitSwizzle.identity())
        target, k = 4242, 3
        hook = schedule_hook({k: [TransientFlip(word_index=target, flip_mask=0x4)]})
        result = _scanner(device).run(
            start_hours=50.0, max_iterations=6, inject=hook
        )
        assert len(result.errors) == 1
        err = result.errors[0]
        assert isinstance(err, ErrorRecord)
        assert err.node == "07-11"
        assert err.virtual_address == device.virtual_address(target)
        assert err.physical_page == device.physical_page(target)
        # Iteration k verifies against value_at(k-1); its log timestamp is
        # start + k * iteration_hours.
        assert err.timestamp_hours == pytest.approx(50.0 + k * ITER_HOURS)
        assert err.expected == AlternatingPattern().value_at(k - 1)
        assert err.actual == err.expected ^ 0x4

    def test_transient_flip_clears_after_rewrite(self):
        device = make_device(1, swizzle=BitSwizzle.identity())
        hook = schedule_hook({2: [TransientFlip(word_index=9, flip_mask=0x1)]})
        result = _scanner(device).run(
            start_hours=0.0, max_iterations=10, inject=hook
        )
        # Exactly one report: the rewrite pass restores the cell.
        assert len(result.errors) == 1
        assert result.errors[0].timestamp_hours == pytest.approx(2 * ITER_HOURS)

    def test_multiple_faults_same_iteration_all_reported(self):
        device = make_device(1, swizzle=BitSwizzle.identity())
        hook = schedule_hook(
            {4: [TransientFlip(word_index=w, flip_mask=0x80) for w in (10, 20, 30)]}
        )
        result = _scanner(device).run(
            start_hours=0.0, max_iterations=5, inject=hook
        )
        assert len(result.errors) == 3
        assert [e.virtual_address for e in result.errors] == [
            device.virtual_address(w) for w in (10, 20, 30)
        ]


class TestStuckBits:
    def test_stuck_low_re_reports_on_every_ones_pass(self):
        device = make_device(1, swizzle=BitSwizzle.identity())
        hook = schedule_hook({1: [StuckCell(word_index=77, mask=0x8, value=0x0)]})
        n_iter = 9
        result = _scanner(device).run(
            start_hours=0.0, max_iterations=n_iter, inject=hook
        )
        # Alternating pattern: expected is all-ones on even iterations
        # (value_at(i-1) with odd i-1), so the stuck-low bit mismatches
        # on iterations 2, 4, 6, 8 — and *keeps* mismatching, unlike the
        # transient case.
        assert len(result.errors) == n_iter // 2
        iters = [round(e.timestamp_hours / ITER_HOURS) for e in result.errors]
        assert iters == [2, 4, 6, 8]
        for err in result.errors:
            assert err.expected == 0xFFFFFFFF
            assert err.actual == 0xFFFFFFFF ^ 0x8
            assert err.virtual_address == device.virtual_address(77)

    def test_stuck_high_mismatches_on_zero_passes(self):
        device = make_device(1, swizzle=BitSwizzle.identity())
        hook = schedule_hook({1: [StuckCell(word_index=5, mask=0x2, value=0x2)]})
        result = _scanner(device).run(
            start_hours=0.0, max_iterations=8, inject=hook
        )
        # The hook fires before iteration 1's verify (expected 0x0), so
        # the stuck-high bit reports on every zeros pass: 1, 3, 5, 7.
        iters = [round(e.timestamp_hours / ITER_HOURS) for e in result.errors]
        assert iters == [1, 3, 5, 7]
        for err in result.errors:
            assert err.expected == 0x0
            assert err.actual == 0x2


class TestScannerValidation:
    def test_zero_iterations_rejected(self):
        device = make_device(1)
        with pytest.raises(ValueError):
            _scanner(device).run(start_hours=0.0, max_iterations=0)

    def test_temperature_threaded_into_records(self):
        device = make_device(1)
        scanner = _scanner(device, temperature=lambda t: 40.0 + t)
        hook = schedule_hook({1: [TransientFlip(word_index=0, flip_mask=0x1)]})
        result = scanner.run(start_hours=10.0, max_iterations=2, inject=hook)
        assert result.start.temperature_c == pytest.approx(50.0)
        assert result.errors[0].temperature_c == pytest.approx(
            50.0 + ITER_HOURS
        )
        assert result.end.temperature_c is not None


def _whole_device_run(scanner, start_hours, max_iterations, inject):
    """Oracle: the scan loop verifying the whole device in one block.

    One ``read_block()`` and one ``verify_words`` call per pass, as the
    scanner did before it verified a block at a time.
    """
    device = scanner.device
    result = ScanResult(
        node=scanner.node,
        start=StartRecord(
            timestamp_hours=start_hours,
            node=scanner.node,
            allocated_mb=(device.n_words * 4) // (1024 * 1024),
            temperature_c=scanner._temp(start_hours),
        ),
        end=None,
    )
    device.fill(scanner.pattern.value_at(0))
    t = start_hours + scanner.iteration_hours
    for iteration in range(1, max_iterations + 1):
        inject(iteration, device)
        expected = int(scanner.pattern.value_at(iteration - 1))
        hits = verify_words(device.read_block(), expected)
        if len(hits):
            addresses = device.address_map.virtual_address(hits.word_index)
            pages = device.address_map.physical_page(hits.word_index)
            temp = scanner._temp(t)
            result.errors.extend(
                ErrorRecord(
                    timestamp_hours=t,
                    node=scanner.node,
                    virtual_address=int(va),
                    physical_page=int(pp),
                    expected=expected,
                    actual=int(word),
                    temperature_c=temp,
                )
                for va, pp, word in zip(addresses, pages, hits.actual)
            )
        device.fill(scanner.pattern.value_at(iteration))
        result.iterations = iteration
        t += scanner.iteration_hours
    result.end = EndRecord(
        timestamp_hours=t, node=scanner.node, temperature_c=scanner._temp(t)
    )
    return result


class TestBlockBoundaries:
    """Block-at-a-time verify against the whole-device oracle."""

    def _compare(self, make, schedule, n_iter=6):
        runs = []
        for run in (MemoryScanner.run, _whole_device_run):
            calls = []

            def temperature(t, calls=calls):
                calls.append(t)
                return 30.0 + len(calls)

            scanner = _scanner(make(), temperature=temperature)
            result = run(scanner, 5.0, n_iter, schedule_hook(schedule))
            runs.append((result, calls))
        (got, got_calls), (want, want_calls) = runs
        assert got.records == want.records
        assert got_calls == want_calls
        return got

    def test_hits_across_three_blocks(self):
        b = SCAN_BLOCK_WORDS
        schedule = {
            1: [StuckCell(word_index=2 * b + 77, mask=0x10, value=0x0)],
            2: [
                TransientFlip(word_index=b - 1, flip_mask=0x1),
                TransientFlip(word_index=b, flip_mask=0x80000000),
            ],
            3: [
                MultiCellEvent(
                    flips=(
                        TransientFlip(word_index=2 * b - 1, flip_mask=0x4),
                        TransientFlip(word_index=2 * b, flip_mask=0x8),
                    )
                )
            ],
        }
        result = self._compare(
            lambda: make_device(3, swizzle=BitSwizzle.identity()), schedule
        )
        # The stuck-low bit shows on the all-ones passes 2, 4 and 6, so
        # pass 2 has hits in all three blocks; pass 3 has the event's two.
        passes = [
            round((e.timestamp_hours - 5.0) / ITER_HOURS) for e in result.errors
        ]
        assert passes == [2, 2, 2, 3, 3, 4, 6]

    def test_partial_last_block(self):
        n_words = 3 * SCAN_BLOCK_WORDS + 12_345

        def make():
            return SimulatedDram(
                DeviceSpec(n_words=n_words, swizzle=BitSwizzle.identity()),
                AddressMap(n_words=n_words),
            )

        schedule = {
            2: [
                TransientFlip(word_index=n_words - 1, flip_mask=0x2),
                TransientFlip(word_index=3 * SCAN_BLOCK_WORDS, flip_mask=0x40),
            ],
            4: [TransientFlip(word_index=17, flip_mask=0x1)],
        }
        result = self._compare(make, schedule)
        assert len(result.errors) == 3
