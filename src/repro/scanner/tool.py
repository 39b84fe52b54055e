"""The bit-accurate memory scanner running over a simulated device.

This is the paper's scanning tool (Sec II-B) translated onto the simulated
DRAM: write every word with the pattern value, verify on the next pass,
log an ERROR entry (timestamp, node, virtual address, expected, actual,
temperature, physical page) for each mismatch, then rewrite with the next
pattern value.  Each verify pass reads the device one 1 MiB block
(``SCAN_BLOCK_WORDS``) at a time and checks the block with the
dispatched :mod:`repro.kernels.scan` verify kernel (a compare plus
``flatnonzero``, XOR only at the hits; ``REPRO_KERNELS=reference`` swaps
in the per-word oracle), so a pass never holds a copy of the whole
device.  Address translation is array-at-once over a pass's hits, so only
actual mismatches drop to Python to build log records, in ascending word
order.

Fault injection happens *between* iterations through a caller-provided
hook, mimicking physics striking while the scanner sleeps through a pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from ..core.records import EndRecord, ErrorRecord, StartRecord
from ..dram.device import SimulatedDram
from ..kernels.scan import verify_words

#: Signature of an injection hook: (iteration, device) -> None.
InjectionHook = Callable[[int, SimulatedDram], None]

#: Words read and verified at a time (1 MiB): a block's copy and compare
#: mask stay small and cache-resident whatever the device size.
SCAN_BLOCK_WORDS = 1 << 18


@dataclass
class ScanResult:
    """Everything one scanner run produced."""

    node: str
    start: StartRecord
    end: EndRecord | None
    errors: list[ErrorRecord] = field(default_factory=list)
    iterations: int = 0

    @property
    def records(self) -> list:
        """All records in log order (START, errors..., END)."""
        out: list = [self.start]
        out.extend(self.errors)
        if self.end is not None:
            out.append(self.end)
        return out


class MemoryScanner:
    """Bit-accurate scan loop over one :class:`SimulatedDram`."""

    def __init__(
        self,
        device: SimulatedDram,
        pattern,
        node: str = "01-01",
        iteration_hours: float = 10.0 / 3600.0,
        temperature: Callable[[float], float | None] | None = None,
    ):
        self.device = device
        self.pattern = pattern
        self.node = node
        #: Wall-clock duration of one full write+verify pass, in hours.
        self.iteration_hours = float(iteration_hours)
        self._temperature = temperature or (lambda t: None)

    def _temp(self, t_hours: float) -> float | None:
        return self._temperature(t_hours)

    def run(
        self,
        start_hours: float,
        max_iterations: int,
        inject: InjectionHook | None = None,
        allocated_mb: int | None = None,
    ) -> ScanResult:
        """Execute the scan loop for up to ``max_iterations`` passes.

        ``max_iterations`` stands in for the SIGTERM the prologue script
        would deliver; the loop itself is the paper's infinite loop.
        """
        if max_iterations < 1:
            raise ValueError("need at least one iteration")
        mb = (
            allocated_mb
            if allocated_mb is not None
            else (self.device.n_words * 4) // (1024 * 1024)
        )
        start = StartRecord(
            timestamp_hours=start_hours,
            node=self.node,
            allocated_mb=mb,
            temperature_c=self._temp(start_hours),
        )
        result = ScanResult(node=self.node, start=start, end=None)

        # Initial write pass: every word gets pattern value 0.
        self.device.fill(self.pattern.value_at(0))
        t = start_hours + self.iteration_hours

        for iteration in range(1, max_iterations + 1):
            if inject is not None:
                inject(iteration, self.device)
            expected = int(self.pattern.value_at(iteration - 1))
            hit_words: list[np.ndarray] = []
            hit_values: list[np.ndarray] = []
            for offset in range(0, self.device.n_words, SCAN_BLOCK_WORDS):
                block = self.device.read_block(offset, SCAN_BLOCK_WORDS)
                hits = verify_words(block, expected)
                if len(hits):
                    hit_words.append(hits.word_index + offset)
                    hit_values.append(hits.actual)
            if hit_words:
                words = np.concatenate(hit_words)
                amap = self.device.address_map
                addresses = amap.virtual_address(words)
                pages = amap.physical_page(words)
                temp = self._temp(t)
                result.errors.extend(
                    ErrorRecord(
                        timestamp_hours=t,
                        node=self.node,
                        virtual_address=int(va),
                        physical_page=int(pp),
                        expected=expected,
                        actual=int(word),
                        temperature_c=temp,
                    )
                    for va, pp, word in zip(
                        addresses, pages, np.concatenate(hit_values)
                    )
                )
            # Rewrite pass with the next value (clears transient flips;
            # stuck bits will mismatch again next iteration).
            self.device.fill(self.pattern.value_at(iteration))
            result.iterations = iteration
            t += self.iteration_hours

        result.end = EndRecord(
            timestamp_hours=t, node=self.node, temperature_c=self._temp(t)
        )
        return result


def schedule_hook(
    schedule: dict[int, Iterable],
) -> InjectionHook:
    """Build an injection hook from {iteration: [faults...]}.

    Faults are any objects accepted by :meth:`SimulatedDram.apply`.
    """

    def hook(iteration: int, device: SimulatedDram) -> None:
        for fault in schedule.get(iteration, ()):
            device.apply(fault)

    return hook
