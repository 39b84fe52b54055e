"""Live log monitoring: the operational side of the study's daemon.

The study analysed its logs after the fact; a production deployment of
the same scanner wants the analysis *online*: tail the per-node log
files as the daemon appends to them, maintain per-node state, raise the
Sec III-I alarms as bursts develop, and recommend the Sec IV actions
(quarantine, checkpoint tightening).

:class:`LogFollower` incrementally reads a directory of ``<node>.log``
files (tracking per-file byte offsets, tolerating rotation/truncation)
into :class:`~repro.logs.columnar.RecordColumns`; :class:`OnlineMonitor`
feeds their ERROR rows to the spatio-temporal alarm rule and emits
:class:`Advice` events.  ``repro monitor --dir`` drives it from the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .logs.columnar import KIND_ERROR, RecordColumns, parse_chunk
from .logs.frame import ErrorFrame
from .resilience.prediction import AlarmRule, PredictorConfig


class LogFollower:
    """Incremental reader over a directory of per-node log files.

    Tracks a ``(inode, offset)`` pair per file so it survives the ways a
    live log directory misbehaves:

    * **truncation** — the file shrank below our offset (e.g. the daemon
      restarted with a fresh log): re-read from the start;
    * **rotation** — the path now names a *different* file (inode
      changed, as with ``logrotate``'s rename-and-recreate), even if the
      new file is already larger than our old offset: re-read from the
      start of the new file;
    * **disappearance** — the file vanished between polls (or between
      ``stat`` and ``open``): skip it this round and drop its state, so
      a later re-creation is read from offset 0.

    Partial trailing lines are never consumed; they are completed (or
    not) by a subsequent poll.  Offsets count bytes, and each file's new
    complete lines go to :func:`~repro.logs.columnar.parse_chunk` as one
    byte blob.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        # path -> (inode, byte offset of the next unread byte)
        self._state: dict[Path, tuple[int, int]] = {}

    def poll(self) -> RecordColumns:
        """All records appended since the previous poll, across files,
        in stable time order (files in name order break ties)."""
        parts: list[RecordColumns] = []
        seen: set[Path] = set()
        for log_file in sorted(self.directory.glob("*.log")):
            try:
                stat = log_file.stat()
            except OSError:
                continue  # vanished since glob; state dropped below
            seen.add(log_file)
            inode, offset = self._state.get(log_file, (stat.st_ino, 0))
            if stat.st_ino != inode or stat.st_size < offset:
                # Rotated (new inode) or truncated: start over.
                inode, offset = stat.st_ino, 0
            if stat.st_size == offset:
                self._state[log_file] = (inode, offset)
                continue
            try:
                with open(log_file, "rb") as fh:
                    fh.seek(offset)
                    chunk = fh.read()
            except OSError:
                seen.discard(log_file)  # vanished mid-poll; retry fresh
                continue
            # Only consume complete lines; carry partials to next poll.
            consumed = chunk.rfind(b"\n") + 1
            if consumed:
                parts.append(parse_chunk(chunk[:consumed]))
            self._state[log_file] = (inode, offset + consumed)
        for stale in set(self._state) - seen:
            del self._state[stale]
        cols = RecordColumns.concat(parts)
        return cols.take(np.argsort(cols.t, kind="stable"))


@dataclass(frozen=True)
class Advice:
    """One operational recommendation emitted by the monitor."""

    time_hours: float
    node: str
    kind: str       # "quarantine" | "tighten-checkpoints"
    reason: str


@dataclass
class MonitorState:
    """Aggregates maintained across polls.

    ``n_errors`` counts error *records*; ``n_raw_lines`` expands their
    repeat compression (the paper's raw-log-line unit).
    """

    n_errors: int = 0
    n_raw_lines: int = 0
    n_alarms: int = 0
    errors_by_node: dict[str, int] = field(default_factory=dict)


class OnlineMonitor:
    """Streaming Sec III-I/IV policy engine over incoming records."""

    def __init__(
        self,
        predictor_config: PredictorConfig | None = None,
        quarantine_days: float = 30.0,
    ):
        self.config = predictor_config or PredictorConfig()
        self.quarantine_days = quarantine_days
        self.state = MonitorState()
        self._rule = AlarmRule(self.config)

    def ingest(self, cols: RecordColumns) -> list[Advice]:
        """Feed new records (ERROR rows in row order); return any advice
        triggered by them."""
        advice: list[Advice] = []
        rows = np.flatnonzero(cols.kind == KIND_ERROR)
        names = cols.node_names
        for code, t, rep in zip(
            cols.node_code[rows].tolist(), cols.t[rows].tolist(), cols.rep[rows].tolist()
        ):
            node = names[code]
            self.state.n_errors += 1
            self.state.n_raw_lines += rep
            self.state.errors_by_node[node] = (
                self.state.errors_by_node.get(node, 0) + 1
            )
            if self._rule.alarmed(node, t) or not self._rule.record(node, t):
                continue
            self.state.n_alarms += 1
            advice.append(
                Advice(
                    time_hours=t,
                    node=node,
                    kind="quarantine",
                    reason=(
                        f"more than {self.config.trigger_count} errors "
                        f"within {self.config.window_hours:.0f}h: "
                        f"quarantine for {self.quarantine_days:.0f} days"
                    ),
                )
            )
            advice.append(
                Advice(
                    time_hours=t,
                    node=node,
                    kind="tighten-checkpoints",
                    reason=(
                        "degraded regime on this node: shorten the "
                        "checkpoint interval until the alarm clears"
                    ),
                )
            )
        return advice


def monitor_directory(
    directory: str | Path,
    predictor_config: PredictorConfig | None = None,
) -> Iterator[Advice]:
    """One full pass over a log directory, yielding advice in order.

    For a one-shot (non-daemon) review of a collected log set; the CLI
    uses this for ``repro monitor``.
    """
    follower = LogFollower(directory)
    monitor = OnlineMonitor(predictor_config)
    for item in monitor.ingest(follower.poll()):
        yield item


def frame_from_directory(directory: str | Path) -> ErrorFrame:
    """Convenience: all ERROR records of a log directory as a table.

    Rows in stable time order; node codes in order of first appearance,
    as :meth:`ErrorFrame.from_records` would intern them.
    """
    cols = LogFollower(directory).poll()
    errors = cols.take(np.flatnonzero(cols.kind == KIND_ERROR))
    present, first = np.unique(errors.node_code, return_index=True)
    order = present[np.argsort(first)]
    recode = np.zeros(len(errors.node_names), dtype=np.int32)
    recode[order] = np.arange(order.size, dtype=np.int32)
    return ErrorFrame.from_columns(
        time_hours=errors.t,
        node_code=recode[errors.node_code],
        node_names=[errors.node_names[code] for code in order],
        expected=errors.expected,
        actual=errors.actual,
        virtual_address=errors.va,
        physical_page=errors.pp,
        temperature_c=errors.temp,
        repeat_count=errors.rep,
    )
