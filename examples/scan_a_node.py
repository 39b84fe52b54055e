#!/usr/bin/env python
"""Bit-accurate walkthrough: one node, one scan session, real faults.

Builds a small simulated ECC-less DRAM region, plants the fault types the
study observed — a weak cell, a stuck component, cosmic-ray strikes, and
one multi-region event — runs the paper's memory scanner over it, shows
the raw log lines, applies the Sec II-C extraction, and finally asks what
a SECDED- or chipkill-protected DIMM would have reported for each fault.

Run:  python examples/scan_a_node.py
"""

from __future__ import annotations

from repro.analysis.extraction import collapse_repeats
from repro.analysis.simultaneity import group_simultaneous
from repro.core import bitops
from repro.dram import StuckCell, TransientFlip, WeakCell, make_device
from repro.ecc import CHIPKILL_32, SECDED_32
from repro.logs.format import format_record
from repro.logs.frame import ErrorFrame
from repro.scanner import AlternatingPattern, MemoryScanner, schedule_hook


def main() -> None:
    # A 4 MB region of the node's LPDDR, with the prototype's bit swizzle.
    device = make_device(4)
    scanner = MemoryScanner(device, AlternatingPattern(), node="07-11")

    # A stuck bit (the kind that floods logs until the node is replaced).
    device.apply(StuckCell(word_index=1000, mask=0b1, value=0b0))

    # Faults landing while the scanner runs:
    faults = {
        3: [TransientFlip(50_000, 0b1)],                  # lone SEU
        5: [WeakCell(200_000, bit=17)],                   # weak-cell firing
        7: [                                              # one particle,
            TransientFlip(300_000, 0b1),                  # several regions
            TransientFlip(600_000, 0b1),
            TransientFlip(900_000, 0b11),                 # 2 adjacent lines
        ],
    }

    result = scanner.run(
        start_hours=0.0, max_iterations=10, inject=schedule_hook(faults)
    )

    print(f"scan session on node {result.node}: {result.iterations} passes,")
    print(f"{len(result.errors)} raw ERROR lines\n")
    print("the node's log file:")
    for record in result.records[:14]:
        print(" ", format_record(record))
    if len(result.records) > 14:
        print(f"  ... ({len(result.records) - 14} more lines)")

    # Sec II-C: collapse consecutive re-detections into independent errors.
    frame = ErrorFrame.from_records(result.errors)
    errors = collapse_repeats(frame, merge_window_hours=0.01)
    print(f"\nafter extraction: {len(errors)} independent errors")
    for e in errors:
        flips = bitops.flipped_positions(e.expected, e.actual).tolist()
        print(
            f"  va=0x{e.virtual_address:x}  "
            f"{bitops.format_word(e.expected)} -> {bitops.format_word(e.actual)}  "
            f"bits {flips}  logged {e.raw_log_count}x"
        )

    # Sec III-C: which errors struck the same instant?
    groups = [g for g in group_simultaneous(errors) if g.is_simultaneous]
    print(f"\nsimultaneity groups: {len(groups)}")
    for g in groups:
        print(
            f"  t={g.timestamp_hours:.4f}h: {g.size} words corrupted at "
            f"once ({g.total_bits} bits total)"
        )

    # What would protected hardware have done?
    print("\nprotection what-if per error:")
    for e in errors:
        secded = SECDED_32.decode_flips(e.expected, e.flip_mask).outcome.name.lower()
        ck = CHIPKILL_32.decode_flips(e.expected, e.flip_mask).status.value
        print(
            f"  {e.n_bits}-bit at va=0x{e.virtual_address:x}: "
            f"SECDED={secded}, chipkill={ck}"
        )
    print(
        "\nnote how the swizzle turned the adjacent-line strike into "
        "non-adjacent logical bits (the paper's Table I signature)."
    )


if __name__ == "__main__":
    main()
