"""The record-object log path: one :class:`LogRecord` at a time.

The reference the columnar path (:func:`repro.logs.columnar.parse_chunk`,
:func:`repro.logs.columnar.format_chunk`, :class:`ColumnarArchive`) is
checked against: :func:`to_records` and :func:`from_records` bridge
columns and record objects, and :class:`LogArchive` reads and writes a
directory of text logs line by line through
:func:`~repro.logs.format.parse_line` and
:func:`~repro.logs.format.format_record`.
"""

from __future__ import annotations

import gzip
import math
from collections import defaultdict
from pathlib import Path
from typing import Iterable, Iterator

from repro.core.errors import ColumnarFormatError
from repro.core.records import (
    AllocFailRecord,
    EndRecord,
    ErrorRecord,
    LogRecord,
    RecordKind,
    StartRecord,
)
from repro.logs.columnar import (
    KIND_ALLOC_FAIL,
    KIND_END,
    KIND_ERROR,
    KIND_START,
    ColumnarArchive,
    RecordColumns,
    _Staging,
    directory_log_files,
)
from repro.logs.format import format_record, parse_line
from repro.logs.frame import ErrorFrame


def from_records(records: Iterable[LogRecord]) -> RecordColumns:
    """Columnarize record objects, one at a time.

    Word values are masked to 32 bits, matching :meth:`ErrorFrame._build`.
    An object that is not one of the four record types raises
    :class:`LogFormatError`.
    """
    staging = _Staging()
    for record in records:
        staging.add_record(record)
    return staging.build()


def to_records(cols: RecordColumns) -> list[LogRecord]:
    """Materialize one record object per row."""
    names = cols.node_names
    fields = (
        "kind", "t", "node_code", "temp", "mb", "va", "pp",
        "expected", "actual", "rep",
    )
    rows = zip(*(getattr(cols, name).tolist() for name in fields))
    records: list[LogRecord] = []
    for kind, t, code, tc, mb, va, pp, expected, actual, rep in rows:
        node = names[code]
        temp = None if math.isnan(tc) else tc
        if kind == KIND_ERROR:
            records.append(
                ErrorRecord(
                    timestamp_hours=t,
                    node=node,
                    virtual_address=va,
                    physical_page=pp,
                    expected=expected,
                    actual=actual,
                    temperature_c=temp,
                    repeat_count=rep,
                )
            )
        elif kind == KIND_START:
            records.append(
                StartRecord(
                    timestamp_hours=t,
                    node=node,
                    allocated_mb=mb,
                    temperature_c=temp,
                )
            )
        elif kind == KIND_END:
            records.append(EndRecord(timestamp_hours=t, node=node, temperature_c=temp))
        elif kind == KIND_ALLOC_FAIL:
            records.append(AllocFailRecord(timestamp_hours=t, node=node))
        else:
            raise ColumnarFormatError(f"unknown kind code {kind}")
    return records


def format_lines(cols: RecordColumns) -> str:
    """The reference text of ``cols``: ``format_record`` per row."""
    return "".join(format_record(record) + "\n" for record in to_records(cols))


def columnar_of(archive: "LogArchive") -> ColumnarArchive:
    """Columnarize a record archive, node by node."""
    return ColumnarArchive(
        {node: from_records(archive.records(node)) for node in archive.nodes}
    )


class LogArchive:
    """In-memory archive of every node's scanner log, as record objects."""

    def __init__(self) -> None:
        self._by_node: dict[str, list[LogRecord]] = defaultdict(list)

    @classmethod
    def of(cls, archive: ColumnarArchive) -> "LogArchive":
        """The record form of a columnar archive."""
        out = cls()
        for node in archive.nodes:
            out.extend(to_records(archive.columns(node)))
        return out

    # -- building -----------------------------------------------------------

    def append(self, record: LogRecord) -> None:
        self._by_node[record.node].append(record)

    def extend(self, records: Iterable[LogRecord]) -> None:
        for record in records:
            self.append(record)

    def sort(self) -> None:
        """Sort every node's records chronologically (stable).

        Ties break on the record-kind *name* (``kind.value`` is the
        string tag), the canonical order
        :func:`repro.logs.columnar.canonical_sort_order` reproduces.
        """
        for records in self._by_node.values():
            records.sort(key=lambda r: (r.timestamp_hours, r.kind.value))

    # -- queries ------------------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        return sorted(self._by_node)

    def records(self, node: str) -> list[LogRecord]:
        return list(self._by_node.get(node, ()))

    def all_records(self) -> Iterator[LogRecord]:
        for node in self.nodes:
            yield from self._by_node[node]

    def error_records(self, node: str | None = None) -> Iterator[ErrorRecord]:
        nodes = [node] if node is not None else self.nodes
        for n in nodes:
            for record in self._by_node.get(n, ()):
                if record.kind is RecordKind.ERROR:
                    yield record

    def n_records(self) -> int:
        return sum(len(v) for v in self._by_node.values())

    def n_raw_error_lines(self) -> int:
        """Raw error-line count with repeat compression expanded."""
        return sum(r.repeat_count for r in self.error_records())

    def error_frame(self) -> ErrorFrame:
        """All ERROR records as a frame, through the record loop."""
        return ErrorFrame.from_records(self.error_records())

    # -- persistence --------------------------------------------------------

    def write_directory(self, path: str | Path, compress: bool = False) -> None:
        """Write one ``<node>.log`` (or ``.log.gz``) file per node."""
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        for node in self.nodes:
            if compress:
                opener = gzip.open(directory / f"{node}.log.gz", "wt", encoding="ascii")
            else:
                opener = open(directory / f"{node}.log", "w", encoding="ascii")
            with opener as fh:
                for record in self._by_node[node]:
                    fh.write(format_record(record))
                    fh.write("\n")

    @classmethod
    def read_directory(cls, path: str | Path) -> "LogArchive":
        """Load an archive from a directory of (optionally gzipped) logs."""
        archive = cls()
        for log_file in directory_log_files(path):
            if log_file.suffix == ".gz":
                fh = gzip.open(log_file, "rt", encoding="ascii")
            else:
                fh = open(log_file, "r", encoding="ascii")
            with fh:
                for line in fh:
                    if line.strip():
                        archive.append(parse_line(line))
        return archive
