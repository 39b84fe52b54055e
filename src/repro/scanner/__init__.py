"""The memory-scanning tool: patterns and the bit-accurate scan loop.

The daemon layer (allocation backoff, sessions, hard-reboot
truncation) is :func:`repro.faultinjection.sessions.build_session_track`.
"""

from .patterns import AlternatingPattern, CountingPattern, ScanPattern, pattern_by_name
from .tool import MemoryScanner, ScanResult, schedule_hook

__all__ = [
    "AlternatingPattern",
    "CountingPattern",
    "MemoryScanner",
    "ScanPattern",
    "ScanResult",
    "pattern_by_name",
    "schedule_hook",
]
