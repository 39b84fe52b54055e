"""Log formats, per-node archives, and the array-backed error table."""

from .columnar import (
    ColumnarArchive,
    RecordColumns,
    directory_log_files,
    format_chunk,
    read_log_file,
)
from .format import format_record, parse_line
from .frame import ErrorFrame
from .ingest import CompactionReport, IngestReport, LiveArchive, compact_archive

__all__ = [
    "ColumnarArchive",
    "CompactionReport",
    "ErrorFrame",
    "IngestReport",
    "LiveArchive",
    "RecordColumns",
    "compact_archive",
    "directory_log_files",
    "format_chunk",
    "format_record",
    "parse_line",
    "read_log_file",
]
