"""Whole-campaign fingerprints, pinned against the per-window loop code.

The digests below were recorded from the campaign code that built idle
windows, power-off clipping, gap subtraction, merging and the per-day
TB-hour split with per-window Python loops.  The array path that replaced
those loops must reproduce every session track, every raw ERROR record
and the Fig 9 daily series bit for bit, so the digests stay as recorded.
"""

from __future__ import annotations

import hashlib

import numpy as np

QUICK_SHA256 = "ce206fbe09af429e935878ab3a38c726fdf622172055c143c0459ed720824837"
PAPER_SHA256 = "5fc82727c469fa8dd4a25921c762b5a43e2c5fc1d932bf0627ffa9e712c2f4e9"


def _update(h, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())


def campaign_fingerprint(result) -> str:
    """sha256 over tracks, the raw error frame and daily TB-hours."""
    h = hashlib.sha256()
    for name, track in result.tracks.items():
        h.update(f"{name}:{track.n_truncated}".encode())
        for arr in (track.starts, track.ends, track.alloc_mb, track.pattern):
            _update(h, arr)
    frame = result.raw_frame()
    h.update("\n".join(frame.node_names).encode())
    for arr in (
        frame.time_hours,
        frame.node_code,
        frame.expected,
        frame.actual,
        frame.virtual_address,
        frame.physical_page,
        frame.temperature_c,
        frame.repeat_count,
    ):
        _update(h, arr)
    _update(h, result.daily_terabyte_hours())
    return h.hexdigest()


def test_quick_campaign_fingerprint(quick_campaign):
    assert campaign_fingerprint(quick_campaign) == QUICK_SHA256


def test_paper_campaign_fingerprint(paper_campaign_result):
    assert campaign_fingerprint(paper_campaign_result) == PAPER_SHA256
