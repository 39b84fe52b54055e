"""Log records as columns: the text codec and the binary shard archive.

The text logs (:mod:`repro.logs.format`) are the portable representation,
but at paper scale (>25M raw error lines) handling them one
:class:`~repro.core.records.LogRecord` object at a time dominates wall
time and memory.  Records therefore live as columns from text to text:

* :class:`RecordColumns`, one NumPy array per record field, exact enough
  to round-trip the text format bit for bit;
* one byte-level **text parser** (:func:`parse_chunk`) that turns
  ``<node>.log[.gz]`` text directly into columns — runs of ERROR lines
  and runs of START/END/ALLOC_FAIL lines are validated and converted
  column-wise straight from the byte buffer, each kind through its
  field table (:data:`_FIELD_LAYOUTS`);
* its inverse, the **text writer** (:func:`format_chunk`), one ``%``
  format per run of same-kind rows;
* :class:`ColumnarArchive`, the per-node archive, with a **versioned
  binary format**: one ``<node>.npz`` shard per node plus a
  ``manifest.json`` carrying the format version, record counts, and a
  SHA-256 checksum per shard.

No record object is built on either text path.  A run the parser's
bulk path cannot take goes line by line, falling back to
:func:`~repro.logs.format.parse_line` for any line the per-line path
cannot read, so malformed input fails with the line parser's
:class:`LogFormatError`.
The record-object reader and writer survive under ``tests/`` as the
differential reference both directions are checked against.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import threading
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ..core.errors import (
    ChecksumMismatchError,
    ColumnarFormatError,
    LogFormatError,
    ShardCorruptError,
    UnknownFormatVersionError,
)
from ..core.fsio import fsync_dir
from ..core.records import (
    AllocFailRecord,
    EndRecord,
    ErrorRecord,
    LogRecord,
    StartRecord,
)
from .format import parse_line
from .frame import ErrorFrame

#: Bump when the shard/manifest layout changes; readers reject archives
#: written by versions they do not understand.  Version 2 adds per-shard
#: **zone maps** to the manifest (min/max/count summaries the query
#: engine uses to skip shards; see :func:`compute_zone_map`) — the shard
#: layout itself is unchanged, so v1 shards remain readable and a v1
#: archive can be upgraded in place by rewriting only the manifest
#: (:func:`upgrade_archive`).  Version 3 makes the manifest a live-store
#: commit log (see :mod:`repro.logs.ingest` and docs/STORAGE.md): a
#: monotonic ``generation`` counter, per-entry LSM ``level``/``seq``
#: fields, a ``batches`` ledger for exactly-once ingest, and multi-node
#: L0 *segment* entries (``node: null`` plus a ``nodes`` list).  One
#: node may now be covered by several entries; readers assemble it in
#: ``seq`` order via :func:`merge_node_parts`.
FORMAT_VERSION = 3

#: Manifest versions this reader understands.  v1 archives simply lack
#: zone maps; consumers must treat a missing ``zone_map`` as "cannot
#: prune", never as "empty shard".  v2 archives lack generation/level/
#: seq bookkeeping; readers default those to a single generation of
#: level-1, one-entry-per-node shards.
SUPPORTED_VERSIONS = (1, 2, 3)

#: Magic string identifying a manifest as ours.
FORMAT_NAME = "repro-columnar"

MANIFEST_NAME = "manifest.json"

# Record-kind codes stored in the ``kind`` column (stable on-disk values).
KIND_START = 0
KIND_ERROR = 1
KIND_END = 2
KIND_ALLOC_FAIL = 3

#: Column name -> dtype of one shard (and of RecordColumns).
SHARD_COLUMNS: dict[str, np.dtype] = {
    "kind": np.dtype(np.uint8),
    "t": np.dtype(np.float64),
    "temp": np.dtype(np.float64),  # NaN == "not logged"
    "mb": np.dtype(np.int64),
    "va": np.dtype(np.int64),
    "pp": np.dtype(np.int64),
    "expected": np.dtype(np.uint32),
    "actual": np.dtype(np.uint32),
    "rep": np.dtype(np.int64),
}


# ---------------------------------------------------------------------------
# RecordColumns: one array per record field
# ---------------------------------------------------------------------------


@dataclass
class RecordColumns:
    """Column-array form of a record sequence (all four record kinds).

    Non-applicable fields hold zeros (e.g. ``va`` on a START row); ``temp``
    is float64 with NaN for "not logged" so parsed temperatures survive
    exactly.  ``node_code`` indexes ``node_names`` — a per-node shard has a
    single name, but the parser and the writer both handle mixed-node
    columns, one line per row whatever its node.
    """

    kind: np.ndarray
    t: np.ndarray
    temp: np.ndarray
    mb: np.ndarray
    va: np.ndarray
    pp: np.ndarray
    expected: np.ndarray
    actual: np.ndarray
    rep: np.ndarray
    node_code: np.ndarray
    node_names: list[str]

    def __len__(self) -> int:
        return int(self.kind.shape[0])

    # -- counts ------------------------------------------------------------

    @property
    def n_errors(self) -> int:
        return int((self.kind == KIND_ERROR).sum())

    @property
    def n_raw_lines(self) -> int:
        """Raw error-line count with repeat compression expanded."""
        return int(self.rep[self.kind == KIND_ERROR].sum())

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls) -> "RecordColumns":
        return cls(
            **{name: np.empty(0, dtype=dt) for name, dt in SHARD_COLUMNS.items()},
            node_code=np.empty(0, dtype=np.int32),
            node_names=[],
        )

    @classmethod
    def concat(cls, parts: Sequence["RecordColumns"]) -> "RecordColumns":
        """Concatenate batches, re-interning node codes across parts."""
        parts = [p for p in parts if len(p)]
        if not parts:
            return cls.empty()
        names: list[str] = []
        index: dict[str, int] = {}
        codes = []
        for part in parts:
            remap = np.empty(len(part.node_names), dtype=np.int32)
            for i, name in enumerate(part.node_names):
                code = index.get(name)
                if code is None:
                    code = len(names)
                    index[name] = code
                    names.append(name)
                remap[i] = code
            codes.append(remap[part.node_code] if len(part.node_names) else part.node_code)
        return cls(
            **{
                name: np.concatenate([getattr(p, name) for p in parts])
                for name in SHARD_COLUMNS
            },
            node_code=np.concatenate(codes),
            node_names=names,
        )

    # -- views -------------------------------------------------------------

    def take(self, order: np.ndarray | slice) -> "RecordColumns":
        """Row-gather: the columns reindexed by ``order``, an index array
        or a ``slice`` (which gives views); the names list is copied."""
        return RecordColumns(
            **{name: getattr(self, name)[order] for name in SHARD_COLUMNS},
            node_code=self.node_code[order],
            node_names=list(self.node_names),
        )

    def split_by_node(self) -> dict[str, "RecordColumns"]:
        """Per-node column sets, preserving within-node record order.

        One stable sort on ``node_code`` plus per-node slicing, not a
        boolean mask per node — a fleet-sized segment splits in
        O(rows log rows), independent of how many nodes it covers.
        """
        order = np.argsort(self.node_code, kind="stable")
        grouped = self.take(order)
        codes = np.arange(len(self.node_names))
        starts = np.searchsorted(grouped.node_code, codes, side="left")
        stops = np.searchsorted(grouped.node_code, codes, side="right")
        out: dict[str, RecordColumns] = {}
        for code, name in enumerate(self.node_names):
            lo, hi = int(starts[code]), int(stops[code])
            out[name] = RecordColumns(
                **{col: getattr(grouped, col)[lo:hi] for col in SHARD_COLUMNS},
                node_code=np.zeros(hi - lo, dtype=np.int32),
                node_names=[name],
            )
        return out


class _Staging:
    """Append-only column staging lists, bulk-converted once per batch."""

    __slots__ = (
        "kind", "t", "temp", "mb", "va", "pp", "expected", "actual", "rep",
        "node_code", "names", "index", "blocks",
    )

    def __init__(self) -> None:
        self.kind: list[int] = []
        self.t: list = []          # str or float; bulk-cast to f8
        self.temp: list = []       # str or float; bulk-cast to f8
        self.mb: list[int] = []
        self.va: list[int] = []
        self.pp: list[int] = []
        self.expected: list[int] = []
        self.actual: list[int] = []
        self.rep: list[int] = []
        self.node_code: list[int] = []
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.blocks: list[dict[str, np.ndarray]] = []

    def intern(self, node: str) -> int:
        code = self.index.get(node)
        if code is None:
            code = len(self.names)
            self.index[node] = code
            self.names.append(node)
        return code

    def add_error_values(self, t, code, va, pp, exp, act, temp, rep) -> None:
        self.kind.append(KIND_ERROR)
        self.t.append(t)
        self.node_code.append(code)
        self.va.append(va)
        self.pp.append(pp)
        self.expected.append(exp)
        self.actual.append(act)
        self.temp.append(temp)
        self.rep.append(rep)
        self.mb.append(0)

    def add_plain(self, kind, t, code, temp, mb) -> None:
        self.kind.append(kind)
        self.t.append(t)
        self.node_code.append(code)
        self.temp.append(temp)
        self.mb.append(mb)
        self.va.append(0)
        self.pp.append(0)
        self.expected.append(0)
        self.actual.append(0)
        self.rep.append(0)

    def add_block(self, arrays: dict[str, np.ndarray]) -> None:
        """Append a pre-converted column block (the bulk-run path).

        Scalar rows staged so far are flushed first so record order is
        preserved when blocks and scalars interleave.
        """
        self._flush_scalars()
        self.blocks.append(arrays)

    def add_record(self, record: LogRecord) -> None:
        """Append one record object (the per-line parser's fallback).

        Word values are masked to 32 bits, matching
        :meth:`ErrorFrame._build`; an object that is not one of the four
        record types raises :class:`LogFormatError`.
        """
        code = self.intern(record.node)
        if isinstance(record, ErrorRecord):
            self.add_error_values(
                record.timestamp_hours,
                code,
                record.virtual_address,
                record.physical_page,
                record.expected & 0xFFFFFFFF,
                record.actual & 0xFFFFFFFF,
                np.nan if record.temperature_c is None else record.temperature_c,
                record.repeat_count,
            )
        elif isinstance(record, StartRecord):
            self.add_plain(
                KIND_START,
                record.timestamp_hours,
                code,
                np.nan if record.temperature_c is None else record.temperature_c,
                record.allocated_mb,
            )
        elif isinstance(record, EndRecord):
            self.add_plain(
                KIND_END,
                record.timestamp_hours,
                code,
                np.nan if record.temperature_c is None else record.temperature_c,
                0,
            )
        elif isinstance(record, AllocFailRecord):
            self.add_plain(KIND_ALLOC_FAIL, record.timestamp_hours, code, np.nan, 0)
        else:
            raise LogFormatError(f"unknown record type {type(record).__name__}")

    def _flush_scalars(self) -> None:
        """Bulk-convert the scalar staging lists into one column block."""
        if not self.kind:
            return
        self.blocks.append(
            {
                "kind": np.asarray(self.kind, dtype=np.uint8),
                "t": np.asarray(self.t, dtype=np.float64),
                "temp": np.asarray(self.temp, dtype=np.float64),
                "mb": np.asarray(self.mb, dtype=np.int64),
                "va": np.asarray(self.va, dtype=np.int64),
                "pp": np.asarray(self.pp, dtype=np.int64),
                "expected": np.asarray(self.expected, dtype=np.uint32),
                "actual": np.asarray(self.actual, dtype=np.uint32),
                "rep": np.asarray(self.rep, dtype=np.int64),
                "node_code": np.asarray(self.node_code, dtype=np.int32),
            }
        )
        for column in (
            self.kind, self.t, self.temp, self.mb, self.va, self.pp,
            self.expected, self.actual, self.rep, self.node_code,
        ):
            column.clear()

    def build(self) -> RecordColumns:
        self._flush_scalars()
        blocks = self.blocks
        if not blocks:
            empty = RecordColumns.empty()
            empty.node_names = self.names
            return empty
        if len(blocks) == 1:
            arrays = blocks[0]
        else:
            arrays = {
                name: np.concatenate([b[name] for b in blocks])
                for name in blocks[0]
            }
        return RecordColumns(
            **{name: arrays[name] for name in SHARD_COLUMNS},
            node_code=arrays["node_code"],
            node_names=self.names,
        )


# ---------------------------------------------------------------------------
# Text parser (the byte engine)
# ---------------------------------------------------------------------------


#: Minimum lines of one run worth the fixed cost of a bulk parse.
_RUN_MIN = 32

#: Bytes of text per chunk when :func:`read_log_file` streams a file.
_CHUNK_BYTES = 1 << 24

#: Place values for bulk fixed-point conversion.  Widths are capped so
#: every intermediate fits in int64 exactly (wider payloads fall back to
#: the per-line path and Python's arbitrary-precision ``int``).
_POW10 = 10 ** np.arange(18, dtype=np.int64)
_POW16 = 16 ** np.arange(15, dtype=np.int64)
_POW16_8 = 16 ** np.arange(7, -1, -1, dtype=np.int64)

#: byte -> digit value (-1 for non-digits); lowercase hex only, matching
#: what format_record emits.
_DEC_VALUE = np.full(256, -1, dtype=np.int8)
_DEC_VALUE[ord("0") : ord("9") + 1] = np.arange(10)
_HEX_VALUE = _DEC_VALUE.copy()
_HEX_VALUE[ord("a") : ord("f") + 1] = np.arange(10, 16)

#: The ASCII bytes ``str.strip`` removes; ``parse_line`` strips each line.
_IS_SPACE = np.zeros(256, dtype=bool)
_IS_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True

#: Slack bytes appended after the encoded text so windowed gathers near
#: the end of the buffer never need index clipping.  Must exceed the
#: widest gather span (rep payloads, 18 digits) plus any prefix length;
#: timestamp and node-name windows are capped at it.
_PAD = 32


def _encode_padded(chunk: str | bytes) -> tuple[np.ndarray, np.ndarray, bytes]:
    """Prepare a text blob for the byte engine.

    Guarantees the returned buffer ends with a newline (a virtual one is
    appended when missing) followed by ``_PAD`` NUL slack bytes, and
    returns the newline positions plus the padded bytes (for slicing)
    alongside it.  A ``str`` is encoded strictly as ASCII, so non-ASCII
    text raises :class:`UnicodeEncodeError`.  ``bytes`` input skips the
    encode entirely; any non-ASCII byte in it fails the digit/prefix
    checks downstream and is diagnosed by the per-line path's strict
    decode (:class:`UnicodeDecodeError`).
    """
    raw = chunk.encode("ascii") if isinstance(chunk, str) else chunk
    if not raw.endswith(b"\n"):
        raw += b"\n"
    blob = raw + b"\x00" * _PAD
    buf = np.frombuffer(blob, dtype=np.uint8)
    return buf, np.flatnonzero(buf == ord("\n")), blob


def _windows(buf: np.ndarray, at: np.ndarray, span: int) -> np.ndarray:
    """The ``span`` bytes at each position of ``at``, one row each.

    Rows of an overlapping stride-1 view of the buffer, so the gather
    builds no (rows x span) index array.  ``buf`` must carry ``_PAD``
    slack bytes past every window (see :func:`_encode_padded`).
    """
    view = np.ndarray(
        (buf.shape[0] - span + 1, span), dtype=np.uint8, buffer=buf, strides=(1, 1)
    )
    return view[at]


def _uint_column(
    buf: np.ndarray, start: np.ndarray, end: np.ndarray, base: int, max_width: int
) -> np.ndarray | None:
    """Bulk-parse unsigned ``base``-10/16 payloads at ``buf[start:end)`` rows.

    Returns int64 values, or None (caller falls back) if any payload is
    empty, wider than ``max_width``, or holds a character outside the
    canonical digit set (``format_record`` emits lowercase hex only).
    ``buf`` must carry ``_PAD`` slack bytes (see :func:`_encode_padded`).
    """
    width = end - start
    if width.min() < 1 or width.max() > max_width:
        return None
    span = int(width.max())
    # Right-aligned gather: leading out-of-field positions are masked to
    # zero, which contributes nothing, so one constant place vector
    # serves every row regardless of its width.  (Payload starts are far
    # enough into each line that ``end - span`` never goes negative for
    # input that passed the prefix checks.)
    mask = np.arange(span) >= (span - width)[:, None]
    table = _HEX_VALUE if base == 16 else _DEC_VALUE
    v = table[_windows(buf, end - span, span)] * mask
    if (v < 0).any():
        return None
    pow_vec = (_POW16 if base == 16 else _POW10)[span - 1 :: -1]
    return (v * pow_vec).sum(axis=1)


def _word_column(
    buf: np.ndarray, start: np.ndarray, end: np.ndarray
) -> np.ndarray | None:
    """Bulk-parse fixed-width ``%08x`` words: one gather, no masking."""
    if ((end - start) != 8).any():
        return None
    v = _HEX_VALUE[_windows(buf, start, 8)]
    if (v < 0).any():
        return None
    return (v * _POW16_8).sum(axis=1)


def _temp_column(
    buf: np.ndarray, start: np.ndarray, end: np.ndarray
) -> np.ndarray | None:
    """Bulk-parse ``temp=`` payloads: ``na`` -> NaN, else canonical ``%.2f``.

    A two-decimal fixed-point value is exact in one IEEE division
    (``cents / 100.0`` is the correctly-rounded nearest double, the same
    result ``float()`` gives), so the fast path matches the reference
    parser bit-for-bit.  Anything else — scientific notation, extra
    decimals — returns None for the per-line path.
    """
    width = end - start
    if width.min() < 1:
        return None
    out = np.full(start.shape[0], np.nan, dtype=np.float64)
    na = (width == 2) & (buf[start] == ord("n")) & (buf[start + 1] == ord("a"))
    numeric = ~na
    if not numeric.any():
        return out
    ns = start[numeric]
    ne = end[numeric]
    negative = buf[ns] == ord("-")
    # Up to 15 integral digits, the point, two decimals: one right-aligned
    # gather with the point's column zeroed and skipped by the place
    # values, so every row converts at once whatever its width.
    width = ne - ns - negative
    if width.min() < 4 or width.max() > 18 or (buf[ne - 3] != ord(".")).any():
        return None
    span = int(width.max())
    v = _DEC_VALUE[_windows(buf, ne - span, span)]
    v[:, span - 3] = 0
    v = v * (np.arange(span) >= (span - width)[:, None])
    if (v < 0).any():
        return None
    place = np.concatenate([_POW10[span - 2 : 1 : -1], [0, 10, 1]])
    cents = (v * place).sum(axis=1)
    if int(cents.max()) >= 2**53:
        return None  # not exactly representable; let float() decide
    values = cents.astype(np.float64) / 100.0
    out[numeric] = np.where(negative, -values, values)
    return out


def _float_column(
    buf: np.ndarray, start: np.ndarray, end: np.ndarray
) -> np.ndarray | None:
    """Bulk-parse timestamps with one C ``strtod`` over the column.

    Space-padded fixed-width bytes let numpy convert the whole column
    (correctly rounded, the result ``float()`` gives) without building a
    Python string.  A NUL byte, which the fixed-width view would drop,
    or a payload wider than the buffer's slack (and than any ``repr`` of
    a float) returns None.
    """
    width = end - start
    if width.min() < 1 or width.max() > _PAD:
        return None
    span = int(width.max())
    inside = np.arange(span) < width[:, None]
    text = np.where(inside, _windows(buf, start, span), np.uint8(32))
    if not text.all():
        return None
    try:
        return text.view(f"S{span}").ravel().astype(np.float64)
    except (ValueError, UnicodeDecodeError):
        return None


def _node_codes(
    buf: np.ndarray, blob: bytes, start: np.ndarray, end: np.ndarray
) -> tuple[list[str], np.ndarray] | None:
    """Intern ``node=`` payloads: names in first-appearance order, codes.

    One ``np.unique`` over a fixed-width bytes view, padded with ``|``
    (which no payload holds), so one run may mix nodes.  An empty or
    non-ASCII name, or one wider than the buffer's slack, returns None.
    """
    width = end - start
    if width.min() < 1 or width.max() > _PAD:
        return None
    span = int(width.max())
    inside = np.arange(span) < width[:, None]
    keys = np.where(inside, _windows(buf, start, span), np.uint8(ord("|")))
    keys = keys.view(f"S{span}").ravel()
    if (keys == keys[0]).all():
        first = np.zeros(1, dtype=np.int64)
        codes = np.zeros(keys.shape[0], dtype=np.int32)
    else:
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty(order.shape[0], dtype=np.int32)
        rank[order] = np.arange(order.shape[0], dtype=np.int32)
        first = first[order]
        codes = rank[inverse]
    try:
        names = [
            blob[start[i] : end[i]].decode("ascii")
            # repro: noqa[NPY002]: one name per distinct node, not per line
            for i in first.tolist()
        ]
    except UnicodeDecodeError:
        return None
    return names, codes


#: Kind code -> (line head, fields in line order as ``(prefix, column)``):
#: the grammar of :data:`_LINE_LAYOUTS`, as the bulk parser reads it.
_FIELD_LAYOUTS = {
    KIND_START: (
        b"START|",
        ((b"t=", "t"), (b"node=", "node"), (b"mb=", "mb"), (b"temp=", "temp")),
    ),
    KIND_ERROR: (
        b"ERROR|",
        (
            (b"t=", "t"), (b"node=", "node"), (b"va=0x", "va"), (b"pp=0x", "pp"),
            (b"exp=0x", "expected"), (b"act=0x", "actual"), (b"temp=", "temp"),
            (b"rep=", "rep"),
        ),
    ),
    KIND_END: (b"END|", ((b"t=", "t"), (b"node=", "node"), (b"temp=", "temp"))),
    KIND_ALLOC_FAIL: (b"ALLOC_FAIL|", ((b"t=", "t"), (b"node=", "node"))),
}

#: Column -> bulk converter of its payloads (``node`` is interned apart).
_FIELD_PARSERS = {
    "t": _float_column,
    "temp": _temp_column,
    "mb": lambda buf, start, end: _uint_column(buf, start, end, 10, 18),
    "rep": lambda buf, start, end: _uint_column(buf, start, end, 10, 18),
    "va": lambda buf, start, end: _uint_column(buf, start, end, 16, 14),
    "pp": lambda buf, start, end: _uint_column(buf, start, end, 16, 14),
    "expected": _word_column,
    "actual": _word_column,
}


#: Kind code -> each field's prefix, as the bytes a line must hold.
_PREFIX_BYTES = {
    kind: tuple(np.frombuffer(prefix, dtype=np.uint8) for prefix, _ in fields)
    for kind, (_, fields) in _FIELD_LAYOUTS.items()
}
#: Kind code -> pipes per line (one before each field).
_N_PIPES = np.array([len(_FIELD_LAYOUTS[kind][1]) for kind in range(4)], dtype=np.int64)
#: Kind code -> (mask, value) of its head's first 8 bytes as a
#: little-endian integer, and the rest of the head.
_HEAD_KEYS = {
    kind: (
        np.uint64((1 << 8 * min(len(head), 8)) - 1),
        np.uint64(int.from_bytes(head[:8], "little")),
        np.frombuffer(head[8:], dtype=np.uint8),
    )
    for kind, (head, _) in _FIELD_LAYOUTS.items()
}


def _line_kinds(buf: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Kind code of each line by its head (``ERROR|`` ...), -1 if none.

    Each line's first 8 bytes are compared as one little-endian integer;
    only the few lines whose head is longer (``ALLOC_FAIL|``) gather the
    rest.
    """
    first8 = _windows(buf, starts, 8).view("<u8").ravel()
    kinds = np.full(starts.shape[0], -1, dtype=np.int8)
    for kind, (mask, value, tail) in _HEAD_KEYS.items():
        hit = (first8 & mask) == value
        if tail.shape[0]:
            rows = np.flatnonzero(hit)
            tail_ok = (_windows(buf, starts[rows] + 8, tail.shape[0]) == tail).all(axis=1)
            hit[rows[~tail_ok]] = False
        kinds[hit] = kind
    return kinds


def _bulk_columns(
    buf: np.ndarray,
    blob: bytes,
    starts: np.ndarray,
    ends: np.ndarray,
    kinds: np.ndarray,
    pipes: np.ndarray,
) -> tuple[dict, list[str], np.ndarray] | None:
    """Columnar parse of one run of lines whose kinds are known by head.

    ``starts``/``ends`` bound each line in ``buf`` (a padded ASCII buffer
    over ``blob``, see :func:`_encode_padded`), ``kinds`` is each line's
    kind code and ``pipes`` every pipe position of the buffer.  Each
    kind's lines are read through its :data:`_FIELD_LAYOUTS` entry:
    every field prefix is checked by position and every payload goes
    through its column's strict converter, so the run is accepted only
    if each line is exactly what :func:`format_record` writes
    (canonical layouts, ``expected != actual``, ``rep >= 1``).  Anything
    else returns None and the caller takes the per-line path, which
    keeps the reference parser's accept/reject behaviour.  Returns the
    columns, the run's node names in first-appearance order, and each
    row's index into them.
    """
    n = int(starts.shape[0])
    n_pipes = _N_PIPES[kinds]
    p0 = int(np.searchsorted(pipes, starts[0]))
    total = int(n_pipes.sum())
    # Lines are disjoint and pipes sorted, so if the run holds exactly
    # the pipes its kinds need and each line's share lies inside the
    # line, every line holds exactly its own share.
    if int(np.searchsorted(pipes, ends[-1])) - p0 != total:
        return None
    if _IS_SPACE[buf[ends - 1]].any():
        return None  # parse_line strips the line; the per-line path does too
    present = np.flatnonzero(np.bincount(kinds, minlength=4))
    single = present.shape[0] == 1
    # A field a kind lacks reads as zero, or NaN for ``temp``.
    columns = {
        column: np.full(n, np.nan if column == "temp" else 0, dtype=dtype)
        for column, dtype in SHARD_COLUMNS.items()
    }
    columns["kind"] = kinds.astype(np.uint8)
    node_start = np.empty(n, dtype=np.int64)
    node_end = np.empty(n, dtype=np.int64)
    if not single:
        first = p0 + np.cumsum(n_pipes) - n_pipes  # each line's first pipe
    for kind in present:
        fields = _FIELD_LAYOUTS[kind][1]
        width = len(fields)
        if single:
            rows = slice(None)
            grid = pipes[p0 : p0 + total].reshape(n, width)
        else:
            rows = np.flatnonzero(kinds == kind)
            grid = pipes[first[rows][:, None] + np.arange(width)]
        line_end = ends[rows]
        if not ((grid[:, 0] >= starts[rows]).all() and (grid[:, -1] < line_end).all()):
            return None
        for f, prefix in enumerate(_PREFIX_BYTES[kind]):
            if not (_windows(buf, grid[:, f] + 1, prefix.shape[0]) == prefix).all():
                return None
        values = {}
        for f, (prefix, column) in enumerate(fields):
            start = grid[:, f] + 1 + len(prefix)
            end = grid[:, f + 1] if f + 1 < width else line_end
            if column == "node":
                node_start[rows], node_end[rows] = start, end
                continue
            values[column] = _FIELD_PARSERS[column](buf, start, end)
            if values[column] is None:
                return None
        # Mirror ErrorRecord.__post_init__ so accept/reject matches the
        # reference parser.
        if kind == KIND_ERROR and (
            (values["expected"] == values["actual"]).any() or (values["rep"] < 1).any()
        ):
            return None
        for column, value in values.items():
            if single:
                columns[column] = value.astype(SHARD_COLUMNS[column], copy=False)
            else:
                columns[column][rows] = value
    nodes = _node_codes(buf, blob, node_start, node_end)
    if nodes is None:
        return None
    return columns, *nodes


def _append_block(
    staging: _Staging, columns: dict, names: list[str], codes: np.ndarray
) -> None:
    remap = np.array([staging.intern(name) for name in names], dtype=np.int32)
    columns["node_code"] = remap[codes]
    staging.add_block(columns)


def _parse_one(staging: _Staging, raw: str) -> None:
    """Per-line fast path with reference-parser fallback (order preserved).

    The line is stripped first, as :func:`~repro.logs.format.parse_line`
    strips it, so a CRLF line reads like its LF form.
    """
    line = raw.strip()
    if not line:
        return
    parts = line.split("|")
    try:
        if (
            len(parts) == 9
            and parts[0] == "ERROR"
            and parts[1].startswith("t=")
            and parts[2].startswith("node=")
            and parts[3].startswith("va=0x")
            and parts[4].startswith("pp=0x")
            and parts[5].startswith("exp=0x")
            and parts[6].startswith("act=0x")
            and parts[7].startswith("temp=")
            and parts[8].startswith("rep=")
        ):
            expected = int(parts[5][6:], 16)
            actual = int(parts[6][6:], 16)
            repeat = int(parts[8][4:])
            # Lines ErrorRecord.__post_init__ would reject go through the
            # reference parser so they raise the same LogFormatError.
            if expected != actual and repeat >= 1:
                temp = parts[7][5:]
                staging.add_error_values(
                    parts[1][2:],
                    staging.intern(parts[2][5:]),
                    int(parts[3][5:], 16),
                    int(parts[4][5:], 16),
                    expected,
                    actual,
                    "nan" if temp == "na" else temp,
                    repeat,
                )
                return
        if (
            len(parts) == 5
            and parts[0] == "START"
            and parts[1].startswith("t=")
            and parts[2].startswith("node=")
            and parts[3].startswith("mb=")
            and parts[4].startswith("temp=")
        ):
            temp = parts[4][5:]
            staging.add_plain(
                KIND_START,
                parts[1][2:],
                staging.intern(parts[2][5:]),
                "nan" if temp == "na" else temp,
                int(parts[3][3:]),
            )
            return
        if (
            len(parts) == 4
            and parts[0] == "END"
            and parts[1].startswith("t=")
            and parts[2].startswith("node=")
            and parts[3].startswith("temp=")
        ):
            temp = parts[3][5:]
            staging.add_plain(
                KIND_END,
                parts[1][2:],
                staging.intern(parts[2][5:]),
                "nan" if temp == "na" else temp,
                0,
            )
            return
        if (
            len(parts) == 3
            and parts[0] == "ALLOC_FAIL"
            and parts[1].startswith("t=")
            and parts[2].startswith("node=")
        ):
            staging.add_plain(
                KIND_ALLOC_FAIL,
                parts[1][2:],
                staging.intern(parts[2][5:]),
                "nan",
                0,
            )
            return
    except ValueError:
        pass  # bad numeric payload: let the reference parser diagnose
    staging.add_record(parse_line(line))


def parse_chunk(chunk: str | bytes) -> RecordColumns:
    """Parse a newline-separated blob of log text into columns.

    The blob is parsed in place at byte level, with no line splitting.
    Each line's kind is read from its head, and the buffer is segmented
    once into maximal runs of ERROR lines and of START/END/ALLOC_FAIL
    lines (which may mix kinds and nodes).  A run of at least
    ``_RUN_MIN`` lines is bulk-parsed by :func:`_bulk_columns` straight
    from the shared pipe/newline position arrays.  Everything else
    (shorter runs, lines of no known kind, any run the bulk parser
    rejects) is sliced out and handed to :func:`_parse_one` line by
    line, which falls back to :func:`~repro.logs.format.parse_line` for
    any line it cannot take, so malformed input raises the reference
    parser's :class:`LogFormatError`.  Node codes follow each name's
    first appearance across both paths.  Blank lines are skipped.

    Log text is ASCII: a non-ASCII ``str`` raises
    :class:`UnicodeEncodeError`, and a non-ASCII byte in ``bytes`` input
    raises :class:`UnicodeDecodeError`, as the file readers do.
    """
    staging = _Staging()
    try:
        buf, newlines, blob = _encode_padded(chunk)
        n = int(newlines.size)
        starts = np.empty(n, dtype=np.int64)
        starts[0] = 0
        starts[1:] = newlines[:-1] + 1
        kinds = _line_kinds(buf, starts)
        # Run classes: 1 for ERROR, 0 for the other kinds, -1 for none.
        run_class = (kinds == KIND_ERROR).astype(np.int8) - (kinds < 0)
        pipes = np.flatnonzero(buf == ord("|"))
        edges = np.flatnonzero(run_class[1:] != run_class[:-1]) + 1
        # repro: noqa[NPY002]: run boundaries only — O(runs), not O(lines)
        bounds = [0, *edges.tolist(), n]
        for lo, hi in zip(bounds, bounds[1:]):
            if run_class[lo] >= 0 and hi - lo >= _RUN_MIN:
                bulk = _bulk_columns(
                    buf, blob, starts[lo:hi], newlines[lo:hi], kinds[lo:hi], pipes
                )
                if bulk is not None:
                    _append_block(staging, *bulk)
                    continue
            # repro: noqa[NPY002]: slow-path fallback — these lines re-parse one by one anyway
            for a, b in zip(starts[lo:hi].tolist(), newlines[lo:hi].tolist()):
                # Strict decode: a non-ASCII byte raises UnicodeDecodeError
                # exactly as the text reference path does at read time.
                _parse_one(staging, blob[a:b].decode("ascii"))
        return staging.build()
    except UnicodeError:
        raise  # a ValueError subclass, but not a numeric-field problem
    except ValueError as exc:
        # A fast-path string payload (timestamp/temperature) failed bulk
        # numeric conversion; re-parse line-by-line for a precise error.
        text = chunk.decode("ascii") if isinstance(chunk, bytes) else chunk
        for raw in text.split("\n"):
            if raw.strip():
                parse_line(raw)
        raise LogFormatError(f"unparseable numeric field in batch: {exc}") from exc


def _open_binary(path: Path):
    import gzip

    if path.name.endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def _iter_byte_chunks(path: str | Path) -> Iterator[bytes]:
    """Stream a log file as newline-aligned byte blobs of ~_CHUNK_BYTES.

    Binary reads skip the text-mode decode; the byte engine validates
    ASCII-ness itself (see :func:`parse_chunk`).
    """
    with _open_binary(Path(path)) as fh:
        tail = b""
        while True:
            block = fh.read(_CHUNK_BYTES)
            if not block:
                if tail:
                    yield tail
                return
            if tail:
                block = tail + block
            cut = block.rfind(b"\n")
            if cut < 0:
                tail = block
                continue
            tail = block[cut + 1 :]
            yield block[: cut + 1]


def read_log_file(path: str | Path) -> RecordColumns:
    """One whole ``<node>.log[.gz]`` file as a single column set.

    The file streams through :func:`parse_chunk` in newline-aligned byte
    blocks of ``_CHUNK_BYTES``, so no per-line list is ever built.
    """
    return RecordColumns.concat(
        [parse_chunk(chunk) for chunk in _iter_byte_chunks(path)]
    )


def node_stem(path: Path) -> str:
    """The node name encoded in a log file name (``01-02.log[.gz]``)."""
    name = path.name
    if name.endswith(".log.gz"):
        return name[: -len(".log.gz")]
    if name.endswith(".log"):
        return name[: -len(".log")]
    return path.stem


def directory_log_files(path: str | Path) -> list[Path]:
    """Log files of a directory, deduplicated by node and stem-sorted.

    A directory holding both ``node.log`` and ``node.log.gz`` (e.g. a
    partially-compressed archive) yields the node once — the uncompressed
    file wins — and the result is sorted by node stem in one pass, so
    ``.log`` and ``.log.gz`` files interleave in deterministic node order
    instead of grouping by extension.
    """
    directory = Path(path)
    by_stem: dict[str, Path] = {}
    for log_file in sorted(directory.glob("*.log")) + sorted(directory.glob("*.log.gz")):
        by_stem.setdefault(node_stem(log_file), log_file)
    return [by_stem[stem] for stem in sorted(by_stem)]


# ---------------------------------------------------------------------------
# Text writer (the inverse of parse_chunk)
# ---------------------------------------------------------------------------


#: Kind code -> (line template, columns in field order).  ``{node}`` and
#: ``{temp}`` are filled once per run: the node name (``%``-escaped) and
#: ``%.2f``, or the literal ``na`` when the run's temperature is NaN (the
#: ``temp`` column is then dropped from the values).
_LINE_LAYOUTS = {
    KIND_START: ("START|t=%r|node={node}|mb=%d|temp={temp}\n", ("t", "mb", "temp")),
    KIND_ERROR: (
        "ERROR|t=%r|node={node}|va=0x%x|pp=0x%x|exp=0x%08x|act=0x%08x"
        "|temp={temp}|rep=%d\n",
        ("t", "va", "pp", "expected", "actual", "temp", "rep"),
    ),
    KIND_END: ("END|t=%r|node={node}|temp={temp}\n", ("t", "temp")),
    KIND_ALLOC_FAIL: ("ALLOC_FAIL|t=%r|node={node}\n", ("t",)),
}


def format_chunk(cols: RecordColumns) -> str:
    """Render columns as log text: the exact inverse of :func:`parse_chunk`.

    Byte for byte what :func:`~repro.logs.format.format_record` writes
    for each row, one line per row: ``%r`` timestamps (the shortest
    repr that round-trips), ``%.2f`` temperatures and ``na`` for NaN,
    lowercase hex.  Rows are grouped into maximal runs that share kind,
    node and whether the temperature is logged, and each run is one
    ``%`` format over its values, so no record object is built.  A kind
    code outside 0..3 raises :class:`ColumnarFormatError`.
    """
    n = len(cols)
    if not n:
        return ""
    kind = cols.kind
    bad = np.flatnonzero(kind > KIND_ALLOC_FAIL)
    if bad.size:
        raise ColumnarFormatError(f"unknown kind code {int(kind[bad[0]])}")
    logged = ~np.isnan(cols.temp)
    change = (
        (kind[1:] != kind[:-1])
        | (cols.node_code[1:] != cols.node_code[:-1])
        | (logged[1:] != logged[:-1])
    )
    starts = np.concatenate([[0], np.flatnonzero(change) + 1])
    stops = np.concatenate([starts[1:], [n]])
    text = []
    for lo, hi in zip(starts, stops):
        template, fields = _LINE_LAYOUTS[int(kind[lo])]
        if logged[lo]:
            temp = "%.2f"
        else:
            temp = "na"
            fields = tuple(name for name in fields if name != "temp")
        node = cols.node_names[cols.node_code[lo]].replace("%", "%%")
        # One row of Python values per line, flattened row-major: the
        # object array converts each column slice in one C loop.
        values = np.empty((hi - lo, len(fields)), dtype=object)
        for j, name in enumerate(fields):
            values[:, j] = getattr(cols, name)[lo:hi]
        line = template.format(node=node, temp=temp)
        # repro: noqa[NPY002]: text output is Python strings; each value leaves the array domain once
        text.append((line * int(hi - lo)) % tuple(values.ravel().tolist()))
    return "".join(text)


# ---------------------------------------------------------------------------
# Canonical record order
# ---------------------------------------------------------------------------


#: Tie rank of each kind *code* in the canonical record order.  Records
#: with equal timestamps are ordered by the record-kind *name* — the
#: string ``RecordKind.value`` — so the tie order is alphabetical:
#: ALLOC_FAIL < END < ERROR < START, i.e. rank ``3 - code`` for the
#: stable on-disk codes 0..3.  Every columnar merge must reproduce this
#: exact order or streamed archives stop being bit-identical to batch
#: ones.
_KIND_SORT_RANK = np.array([3, 2, 1, 0], dtype=np.int64)


def canonical_sort_order(
    t: np.ndarray, kind: np.ndarray, group: np.ndarray | None = None
) -> np.ndarray:
    """Stable permutation into the archive's canonical record order.

    Primary key: timestamp.  Secondary key: the record-kind *name* in
    string order (see :data:`_KIND_SORT_RANK`), which is how a stable
    sort of records on ``(timestamp_hours, kind.value)`` orders them,
    tie for tie.  Stability means equal ``(t, kind)`` rows keep their
    input order, which is how multi-part merges preserve commit
    (``seq``) order among ties.

    With ``group`` (an integer key per row) the permutation sorts by
    group first, then the canonical key within each group — equivalent
    to canonically sorting every group on its own, in one pass.  The
    compactor uses this to merge a whole multi-node component without
    materializing per-node intermediates.
    """
    rank = _KIND_SORT_RANK[np.asarray(kind, dtype=np.int64)]
    keys: tuple[np.ndarray, ...] = (rank, np.asarray(t, dtype=np.float64))
    if group is not None:
        keys = keys + (np.asarray(group, dtype=np.int64),)
    return np.lexsort(keys)


def merge_node_parts(parts: Sequence[RecordColumns]) -> RecordColumns:
    """Canonical merge of one node's shard parts (caller orders by seq).

    A single part passes through untouched — legacy one-shard-per-node
    archives keep their raw on-disk order, and live L0 batches are
    canonically sorted at append time, so both cases are already in
    final order.  Multiple parts concatenate and stable-sort by the
    canonical key; ties therefore resolve in part (commit) order.
    """
    parts = [p for p in parts if len(p)]
    if not parts:
        return RecordColumns.empty()
    if len(parts) == 1:
        return parts[0]
    merged = RecordColumns.concat(parts)
    return merged.take(canonical_sort_order(merged.t, merged.kind))


def entry_nodes(entry: dict) -> list[str]:
    """Node names covered by one manifest entry (1 shard or N-node segment)."""
    node = entry.get("node")
    if node is not None:
        return [node]
    return list(entry.get("nodes") or [])


# ---------------------------------------------------------------------------
# Zone maps
# ---------------------------------------------------------------------------


def compute_zone_map(cols: RecordColumns) -> dict:
    """Per-shard min/max/count summary used for predicate pruning.

    The summary must stay *conservative*: a shard may only be skipped
    when the zone map proves no row can match, so every entry describes
    the full range actually present.  ``temp`` ranges ignore NaN ("not
    logged") rows and carry ``n_temp`` so null/not-null predicates can
    prune too; ``bits`` is the flipped-bit-count range over ERROR rows
    (the paper's "#bits"), which is what lets multi-bit queries skip
    single-bit-only shards without opening them.
    """
    return zone_maps_of(group_zone_columns(cols, [len(cols)]))[0]


def group_zone_columns(cols: RecordColumns, counts) -> dict[str, np.ndarray]:
    """The zone maps of consecutive row groups, as columns.

    Group ``i`` is the next ``counts[i]`` rows of ``cols`` (a group may
    be empty).  Row ``i`` of each column describes group ``i``:
    ``n_records``, ``n_temp``, the ``t_lo``/``t_hi`` and
    ``temp_lo``/``temp_hi`` ranges (NaN where the zone map holds None),
    ``kinds`` (counts of kind codes 0-3) and the ERROR rows' ``bits``
    range as ``bits_lo``/``bits_hi`` with ``has_bits`` (64, 0 when
    the group has no ERROR row).  Every field is one ufunc ``reduceat``
    over the whole column, so the per-node zones of a fleet-size
    segment cost a few passes over its rows.
    """
    from ..core import bitops

    counts = np.asarray(counts, dtype=np.int64)
    n = counts.shape[0]
    out = {
        name: np.full(n, np.nan, dtype=np.float64)
        for name in ("t_lo", "t_hi", "temp_lo", "temp_hi")
    }
    out.update(
        n_records=counts,
        n_temp=np.zeros(n, dtype=np.int64),
        kinds=np.zeros((n, 4), dtype=np.int64),
        bits_lo=np.full(n, 64, dtype=np.int64),
        bits_hi=np.zeros(n, dtype=np.int64),
    )
    full = counts > 0
    if full.any():
        starts = (np.cumsum(counts) - counts)[full]
        logged = ~np.isnan(cols.temp)
        err = cols.kind == KIND_ERROR
        bits = np.asarray(
            bitops.n_flipped_bits(cols.expected, cols.actual), dtype=np.int64
        ).reshape(-1)
        out["t_lo"][full] = np.minimum.reduceat(cols.t, starts)
        out["t_hi"][full] = np.maximum.reduceat(cols.t, starts)
        out["n_temp"][full] = np.add.reduceat(logged, starts, dtype=np.int64)
        out["temp_lo"][full] = np.fmin.reduceat(cols.temp, starts)
        out["temp_hi"][full] = np.fmax.reduceat(cols.temp, starts)
        out["kinds"][full] = np.add.reduceat(
            cols.kind[:, None] == np.arange(4), starts, axis=0, dtype=np.int64
        )
        out["bits_lo"][full] = np.minimum.reduceat(np.where(err, bits, 64), starts)
        out["bits_hi"][full] = np.maximum.reduceat(np.where(err, bits, 0), starts)
    out["has_bits"] = out["kinds"][:, KIND_ERROR] > 0
    return out


def zone_maps_of(columns: dict[str, np.ndarray]) -> list[dict]:
    """The zone-map dicts of :func:`group_zone_columns` rows."""
    # repro: noqa[NPY002]: manifest JSON boundary — zone maps are Python values
    c = {name: arr.tolist() for name, arr in columns.items()}
    zones = []
    for i, n in enumerate(c["n_records"]):
        zones.append({
            "n_records": n,
            "t": [c["t_lo"][i], c["t_hi"][i]] if n else None,
            "temp": [c["temp_lo"][i], c["temp_hi"][i]] if c["n_temp"][i] else None,
            "n_temp": c["n_temp"][i],
            "kinds": {str(k): m for k, m in enumerate(c["kinds"][i]) if m},
            "bits": [c["bits_lo"][i], c["bits_hi"][i]] if c["has_bits"][i] else None,
        })
    return zones


def manifest_fingerprint(manifest: dict) -> str:
    """Content fingerprint of an archive: digest over its shard digests.

    Stable across manifest rewrites that do not change shard bytes
    (e.g. a zone-map backfill), so query-result cache entries survive a
    ``repro logs upgrade`` — same data, same key.  v3 segment entries
    (``node: null``) hash under the empty node label; for v1/v2
    manifests the sort key and hashed bytes reduce to the historical
    per-node form, so existing fingerprints are unchanged.  Every ingest
    or compaction commit changes the shard population, hence the
    fingerprint — which is what invalidates query caches (see
    docs/STORAGE.md).
    """
    digest = hashlib.sha256()
    entries = sorted(
        manifest["shards"], key=lambda e: ((e.get("node") or ""), e["file"])
    )
    for entry in entries:
        digest.update((entry.get("node") or "").encode())
        digest.update(entry["sha256"].encode())
    return digest.hexdigest()


def shard_payload(cols: RecordColumns, node_label: str) -> bytes:
    """Serialized ``.npz`` bytes of one shard/segment (shared writer path).

    ``node_label`` is the scalar stored under the ``node`` member: the
    node name for per-node shards, ``""`` for multi-node segments (whose
    real names live in ``node_names``/``node_code``).
    """
    buffer = io.BytesIO()
    np.savez(
        buffer,
        format_version=np.asarray(FORMAT_VERSION, dtype=np.int64),
        # repro: noqa[NPY001]: unicode columns — width (<U#) must be value-inferred
        node=np.asarray(node_label),
        # repro: noqa[NPY001]: unicode columns — width (<U#) must be value-inferred
        node_names=np.asarray(cols.node_names),
        node_code=cols.node_code,
        **{name: getattr(cols, name) for name in SHARD_COLUMNS},
    )
    return buffer.getvalue()


def write_manifest_atomic(
    path: str | Path, manifest: dict, *, before_replace=None
) -> None:
    """Durably commit ``manifest.json``: temp file + fsync + atomic rename.

    The commit point is the ``os.replace``; a crash before it leaves the
    previous manifest fully intact, a crash after it leaves the new one.
    ``before_replace`` is a test hook (crash injection between durability
    and visibility); production callers leave it None.
    """
    manifest_path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=manifest_path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        if before_replace is not None:
            before_replace()
        os.replace(tmp, manifest_path)
        fsync_dir(manifest_path.parent)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# ---------------------------------------------------------------------------
# ColumnarArchive
# ---------------------------------------------------------------------------


class ColumnarArchive:
    """Per-node log archive held as column arrays.

    One :class:`RecordColumns` per node, in canonical record order.
    Errors reach the analysis as an :class:`ErrorFrame` and text through
    :func:`format_chunk`, neither building a record object.  Persisted as
    one ``.npz`` shard per node plus a checksummed manifest (see
    :meth:`save` / :meth:`load`).
    """

    def __init__(self, columns_by_node: dict[str, RecordColumns] | None = None):
        self._by_node: dict[str, RecordColumns] = dict(columns_by_node or {})
        #: node -> ShardCorruptError for shards dropped by a degraded load
        #: (``load(..., skip_corrupt=True)``); empty on a clean archive.
        self.skipped_shards: dict[str, ShardCorruptError] = {}
        #: The manifest this archive was loaded from, if any.
        self.manifest: dict | None = None

    # -- text --------------------------------------------------------------

    @classmethod
    def read_text_directory(cls, path: str | Path) -> "ColumnarArchive":
        """Ingest a directory of text logs, one file after another.

        Files are deduplicated by node stem and stem-sorted
        (:func:`directory_log_files`), so node order — and therefore
        every downstream frame — is deterministic.
        """
        parts = [read_log_file(file) for file in directory_log_files(path)]
        return cls(RecordColumns.concat(parts).split_by_node())

    def write_text_directory(self, path: str | Path) -> None:
        """Write one ``<node>.log`` per node holding records, through
        :func:`format_chunk`."""
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        for node in self.nodes:
            cols = self._by_node[node]
            if len(cols):
                with open(directory / f"{node}.log", "w", encoding="ascii") as fh:
                    fh.write(format_chunk(cols))

    # -- queries -----------------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        return sorted(self._by_node)

    def columns(self, node: str) -> RecordColumns:
        cols = self._by_node.get(node)
        return cols if cols is not None else RecordColumns.empty()

    def n_records(self) -> int:
        return sum(len(c) for c in self._by_node.values())

    def n_errors(self) -> int:
        return sum(c.n_errors for c in self._by_node.values())

    def n_raw_error_lines(self) -> int:
        """The paper's ">25 million error logs" number (repeats expanded)."""
        return sum(c.n_raw_lines for c in self._by_node.values())

    def error_frame(self) -> ErrorFrame:
        """All ERROR rows as an :class:`ErrorFrame`, fully vectorized.

        Nodes are visited in sorted order and codes assigned at first
        error appearance, the interning order
        :meth:`ErrorFrame.from_records` gives the same errors.
        """
        names: list[str] = []
        chunks: list[tuple[RecordColumns, np.ndarray, int]] = []
        for node in self.nodes:
            cols = self._by_node[node]
            mask = cols.kind == KIND_ERROR
            if not mask.any():
                continue
            chunks.append((cols, mask, len(names)))
            names.append(node)
        if not chunks:
            return ErrorFrame.from_records([])
        return ErrorFrame.from_columns(
            time_hours=np.concatenate([c.t[m] for c, m, _ in chunks]),
            node_code=np.concatenate(
                [np.full(int(m.sum()), code, dtype=np.int32) for _, m, code in chunks]
            ),
            node_names=names,
            expected=np.concatenate([c.expected[m] for c, m, _ in chunks]),
            actual=np.concatenate([c.actual[m] for c, m, _ in chunks]),
            virtual_address=np.concatenate([c.va[m] for c, m, _ in chunks]),
            physical_page=np.concatenate([c.pp[m] for c, m, _ in chunks]),
            temperature_c=np.concatenate([c.temp[m] for c, m, _ in chunks]),
            repeat_count=np.concatenate([c.rep[m] for c, m, _ in chunks]),
        )

    # -- binary persistence ------------------------------------------------

    def save(self, path: str | Path) -> dict:
        """Write one ``.npz`` shard per node plus the checksummed manifest.

        Returns the manifest dict.  Every shard is fsync'd before the
        manifest commits through :func:`write_manifest_atomic`, so a
        committed manifest never names a shard that is not on disk, and a
        crash before the commit leaves a new directory without a manifest
        (which fails loudly on load).
        """
        from .. import __version__

        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        shards = []
        for seq, node in enumerate(self.nodes):
            cols = self._by_node[node]
            filename = f"{node}.npz"
            payload = shard_payload(cols, node)
            with open(directory / filename, "wb") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            shards.append(
                {
                    "node": node,
                    "file": filename,
                    "sha256": hashlib.sha256(payload).hexdigest(),
                    "n_records": len(cols),
                    "n_errors": cols.n_errors,
                    "n_raw_lines": cols.n_raw_lines,
                    "zone_map": compute_zone_map(cols),
                    # One fully-compacted shard per node: a batch save is
                    # a single-generation archive of level-1 sorted runs.
                    "level": 1,
                    "seq": seq,
                }
            )
        manifest = {
            "format": FORMAT_NAME,
            "format_version": FORMAT_VERSION,
            "writer": f"repro {__version__}",
            "generation": 1,
            "next_seq": len(shards),
            "batches": [],
            "n_nodes": len(shards),
            "n_records": self.n_records(),
            "n_errors": self.n_errors(),
            "n_raw_lines": self.n_raw_error_lines(),
            "shards": shards,
        }
        fsync_dir(directory)
        write_manifest_atomic(directory / MANIFEST_NAME, manifest)
        return manifest

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        verify_checksums: bool = True,
        skip_corrupt: bool = False,
    ) -> "ColumnarArchive":
        """Read a columnar archive, validating version, layout and checksums.

        Per-shard damage (missing file, torn bytes, checksum mismatch,
        node/count mismatch) raises :class:`ShardCorruptError` naming the
        node.  With ``skip_corrupt=True`` the load degrades instead: bad
        shards are dropped, the surviving population is returned, and the
        damage is recorded on ``archive.skipped_shards`` (node ->
        exception) — the same accounting the paper applies to dead blades.
        Archive-level problems (missing/corrupt manifest, unknown format
        version) stay fatal either way.

        v3 archives may cover one node with several entries (live L0
        segments plus compacted runs); parts are assembled in commit
        (``seq``) order through :func:`merge_node_parts`, and a corrupt
        entry under ``skip_corrupt`` drops *every* node it covers (a
        partially-assembled node would silently miss records).
        """
        directory = Path(path)
        manifest = read_manifest(directory)
        archive = cls()
        archive.manifest = manifest
        skipped: dict[str, ShardCorruptError] = {}
        parts: dict[str, list[tuple[int, RecordColumns]]] = {}
        for entry in manifest["shards"]:
            try:
                cols = _load_shard(
                    directory, entry, verify_checksum=verify_checksums
                )
            except ShardCorruptError as exc:
                if not skip_corrupt:
                    raise
                for name in entry_nodes(entry):
                    skipped[name] = exc
                continue
            seq = int(entry.get("seq") or 0)
            if entry.get("node") is not None:
                parts.setdefault(entry["node"], []).append((seq, cols))
            else:
                for name, sub in cols.split_by_node().items():
                    parts.setdefault(name, []).append((seq, sub))
        for name, node_parts in parts.items():
            if name in skipped:
                continue  # incomplete node: dead-blade accounting
            node_parts.sort(key=lambda p: p[0])
            archive._by_node[name] = merge_node_parts(
                [part for _, part in node_parts]
            )
        archive.skipped_shards = skipped
        return archive


def read_manifest(path: str | Path) -> dict:
    """Load and validate ``manifest.json`` (format, version, shard list)."""
    manifest_path = Path(path) / MANIFEST_NAME
    try:
        text = manifest_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ColumnarFormatError(
            f"not a columnar archive (no {MANIFEST_NAME}): {manifest_path}"
        ) from exc
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ColumnarFormatError(f"corrupt manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise ColumnarFormatError(
            f"{manifest_path} is not a {FORMAT_NAME!r} manifest"
        )
    version = manifest.get("format_version")
    if version not in SUPPORTED_VERSIONS:
        raise UnknownFormatVersionError(
            f"archive format version {version!r} not supported "
            f"(this reader understands versions {SUPPORTED_VERSIONS})"
        )
    shards = manifest.get("shards")
    if not isinstance(shards, list):
        raise ColumnarFormatError(f"manifest {manifest_path} has no shard list")
    for entry in shards:
        if not isinstance(entry, dict) or not {"node", "file", "sha256"} <= set(entry):
            raise ColumnarFormatError(
                f"manifest {manifest_path} has a malformed shard entry: {entry!r}"
            )
        if entry["node"] is None:
            # v3 multi-node segment: the real names live in ``nodes``.
            nodes = entry.get("nodes")
            if not isinstance(nodes, list) or not nodes:
                raise ColumnarFormatError(
                    f"manifest {manifest_path} has a segment entry without "
                    f"a node list: {entry.get('file')!r}"
                )
    for key in ("generation", "next_seq"):
        value = manifest.get(key)
        if value is not None and (not isinstance(value, int) or value < 0):
            raise ColumnarFormatError(
                f"manifest {manifest_path} has a malformed {key!r}: {value!r}"
            )
    batches = manifest.get("batches")
    if batches is not None and not isinstance(batches, list):
        raise ColumnarFormatError(
            f"manifest {manifest_path} has a malformed batch ledger: {batches!r}"
        )
    return manifest


def upgrade_archive(path: str | Path) -> dict:
    """Upgrade a v1/v2 archive's manifest in place to the current format.

    v1 -> v2 backfills zone maps; v2 -> v3 adds the live-store
    bookkeeping (``generation``/``next_seq``/``batches`` plus per-entry
    ``level``/``seq``).  Only the manifest is rewritten — shard files
    (and therefore their checksums and the archive fingerprint) are
    untouched, so the upgrade is cheap, idempotent, and safe to
    interrupt: the new manifest is committed via temp file + fsync +
    atomic rename.  Returns the (possibly already current) manifest.
    """
    directory = Path(path)
    manifest = read_manifest(directory)
    needs_upgrade = (
        manifest["format_version"] != FORMAT_VERSION
        or manifest.get("generation") is None
        or manifest.get("next_seq") is None
        or any(
            "zone_map" not in entry or "level" not in entry or "seq" not in entry
            for entry in manifest["shards"]
        )
    )
    if not needs_upgrade:
        return manifest
    for position, entry in enumerate(manifest["shards"]):
        if "zone_map" not in entry:
            cols = _load_shard(directory, entry, verify_checksum=True)
            entry["zone_map"] = compute_zone_map(cols)
            entry.setdefault("n_records", len(cols))
            entry.setdefault("n_errors", cols.n_errors)
            entry.setdefault("n_raw_lines", cols.n_raw_lines)
        # Pre-v3 archives hold exactly one fully-merged shard per node:
        # a single generation of level-1 runs in manifest order.
        entry.setdefault("level", 1)
        entry.setdefault("seq", position)
    manifest["format_version"] = FORMAT_VERSION
    manifest.setdefault("generation", 1)
    manifest.setdefault(
        "next_seq", 1 + max((int(e["seq"]) for e in manifest["shards"]), default=-1)
    )
    manifest.setdefault("batches", [])
    write_manifest_atomic(directory / MANIFEST_NAME, manifest)
    return manifest


#: ``np.load`` parses each ``.npy`` member header with
#: ``ast.literal_eval``, which is not thread-safe on CPython 3.11: the
#: AST-constructor recursion counter lives in per-interpreter state, so
#: two threads decoding shards at once (the server's readers) can race
#: it into ``SystemError: AST constructor recursion depth mismatch``
#: when a garbage collection runs Python finalizers mid-parse.  Decoding
#: holds the GIL anyway, so serializing it costs little.
NPZ_DECODE_LOCK = threading.Lock()


def _load_shard(
    directory: Path, entry: dict, *, verify_checksum: bool = True
) -> RecordColumns:
    shard_path = directory / entry["file"]
    shard_node = entry.get("node")
    try:
        payload = shard_path.read_bytes()
    except OSError as exc:
        raise ShardCorruptError(
            f"missing shard {shard_path}", node=shard_node
        ) from exc
    if verify_checksum:
        digest = hashlib.sha256(payload).hexdigest()
        if digest != entry["sha256"]:
            raise ChecksumMismatchError(
                f"shard {shard_path} checksum mismatch: "
                f"manifest {entry['sha256'][:12]}…, file {digest[:12]}…",
                node=shard_node,
            )
    try:
        with NPZ_DECODE_LOCK, np.load(io.BytesIO(payload), allow_pickle=False) as npz:
            version = int(npz["format_version"])
            # The shard layout is identical across v1 and v2 (zone maps
            # live in the manifest), so an upgraded archive may hold v1
            # shards under a v2 manifest.
            if version not in SUPPORTED_VERSIONS:
                raise UnknownFormatVersionError(
                    f"shard {shard_path} has format version {version}, "
                    f"this reader understands versions {SUPPORTED_VERSIONS}"
                )
            node = str(npz["node"])
            arrays = {name: npz[name] for name in SHARD_COLUMNS}
            node_code = npz["node_code"]
            node_names = [str(n) for n in npz["node_names"]]
    except (zipfile.BadZipFile, ValueError, KeyError, EOFError, OSError) as exc:
        raise ShardCorruptError(
            f"corrupt shard {shard_path}: {exc}", node=shard_node
        ) from exc
    if shard_node is not None and node != shard_node:
        # Multi-node segments (v3) store a sentinel `node=""` scalar; the
        # real names live in node_names/node_code, so only per-node shards
        # carry a checkable node label.
        raise ShardCorruptError(
            f"shard {shard_path} holds node {node!r}, manifest says {shard_node!r}",
            node=shard_node,
        )
    n = {int(a.shape[0]) for a in arrays.values()} | {int(node_code.shape[0])}
    if len(n) != 1:
        raise ShardCorruptError(
            f"shard {shard_path} has ragged columns: {n}", node=shard_node
        )
    cols = RecordColumns(
        **{
            name: np.asarray(arr, dtype=SHARD_COLUMNS[name])
            for name, arr in arrays.items()
        },
        node_code=np.asarray(node_code, dtype=np.int32),
        node_names=node_names,
    )
    expected = entry.get("n_records")
    if expected is not None and expected != len(cols):
        raise ShardCorruptError(
            f"shard {shard_path} has {len(cols)} records, "
            f"manifest promised {expected}",
            node=shard_node,
        )
    return cols
