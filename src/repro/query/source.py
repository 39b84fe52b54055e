"""Shard sources: where the engine's scan stage gets its columns.

Two implementations share one interface:

* :class:`ArchiveSource` — an on-disk columnar archive directory.  Only
  the manifest is read at construction; each shard's ``.npz`` is opened
  on demand, and only the *columns a plan needs* are decoded from it.
  Every read is counted (:class:`IoStats`), which is how tests and the
  acceptance bench prove that zone-map pruning really skips disk I/O.
* :class:`MemorySource` — an in-memory :class:`ColumnarArchive` (e.g.
  fresh campaign output), with zone maps computed on first use.  Same
  pruning semantics, no disk.

``shards()`` returns the snapshot's :class:`~repro.query.prune.ZoneTable`.

Both expose a stable ``fingerprint()`` identifying the archive content;
together with the plan digest it keys the engine's result cache.

v3 archives are *live*: a node may be covered by several manifest
entries (fresh L0 segments plus compacted runs), and the manifest may
be atomically replaced under a running source by an ingest or
compaction commit.  :class:`ArchiveSource` therefore assembles
multi-part nodes in canonical order at scan time and (with
``watch=True``, the default) re-reads the manifest whenever its
``fingerprint()`` is asked for and the file changed — which is exactly
once per query, at cache-key time, so a plan running alone scans a
single consistent snapshot.  (Queries sharing one source on several
threads can overlap another query's reload and read later nodes
through the newer manifest.)
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.errors import ShardCorruptError
from ..logs.columnar import (
    MANIFEST_NAME,
    NPZ_DECODE_LOCK,
    SHARD_COLUMNS,
    ColumnarArchive,
    RecordColumns,
    _load_shard,
    compute_zone_map,
    entry_nodes,
    group_zone_columns,
    manifest_fingerprint,
    merge_node_parts,
    read_manifest,
)
from .prune import ZoneTable

#: Budget (in decoded column bytes) for multi-node segments kept hot
#: per source.  One segment serves many per-node scans; without the
#: cache an N-node segment would be decoded N times per query, and a
#: node whose parts span every live segment (a hot node between
#: compactions) would thrash any small count-based cache.
SEGMENT_CACHE_BYTES = 128 * 1024 * 1024


class _NodeSlices:
    """A decoded multi-node segment, pre-sorted for per-node slicing.

    Holds exactly one sorted copy of the segment's columns plus a
    ``node -> (start, stop)`` index; ``get()`` hands out zero-copy
    views.  This keeps the segment cache's footprint proportional to
    the segment data itself rather than to the number of nodes it
    covers (a fleet segment split into thousands of tiny materialized
    ``RecordColumns`` costs far more in object overhead than in data).
    """

    __slots__ = ("_cols", "_counts", "_bounds", "nbytes")

    def __init__(self, cols: RecordColumns):
        order = np.argsort(cols.node_code, kind="stable")
        grouped = cols.take(order)
        self._counts = np.bincount(
            grouped.node_code, minlength=len(grouped.node_names)
        )
        stops = np.cumsum(self._counts)
        starts = stops - self._counts
        self._cols = grouped
        self._bounds = {
            name: (int(starts[code]), int(stops[code]))
            for code, name in enumerate(grouped.node_names)
            if stops[code] > starts[code]
        }
        self.nbytes = int(
            sum(getattr(grouped, name).nbytes for name in SHARD_COLUMNS)
        )

    def get(self, node: str) -> RecordColumns | None:
        bounds = self._bounds.get(node)
        if bounds is None:
            return None
        lo, hi = bounds
        return RecordColumns(
            **{
                name: getattr(self._cols, name)[lo:hi]
                for name in SHARD_COLUMNS
            },
            node_code=np.zeros(hi - lo, dtype=np.int32),
            node_names=[node],
        )

    def zone_table(self, nodes: list[str]) -> ZoneTable:
        """Exact per-node zones of ``nodes``, derived from the rows.

        One ``reduceat`` pass per zone field over the node-sorted
        columns; a listed node without rows gets an empty zone.
        """
        columns = group_zone_columns(self._cols, np.append(self._counts, 0))
        code_of = {name: code for code, name in enumerate(self._cols.node_names)}
        empty = len(self._counts)
        rows = np.fromiter(
            (code_of.get(name, empty) for name in nodes), np.intp, len(nodes)
        )
        return ZoneTable(
            nodes=tuple(nodes),
            n_parts=np.ones(len(nodes), dtype=np.int64),
            known=np.ones(len(nodes), dtype=bool),
            **{name: arr[rows] for name, arr in columns.items()},
        )


@dataclass
class IoStats:
    """Counters for shard I/O performed on behalf of queries."""

    shards_read: int = 0
    columns_read: int = 0
    bytes_read: int = 0

    def to_dict(self) -> dict:
        return {
            "shards_read": self.shards_read,
            "columns_read": self.columns_read,
            "bytes_read": self.bytes_read,
        }


class ArchiveSource:
    """Columns served straight from an archive directory's shard files.

    ``verify_checksums`` defaults to False here (unlike
    :meth:`ColumnarArchive.load`): verifying a shard requires hashing
    its full bytes, which defeats column-selective reads.  Run
    ``repro logs inspect --verify`` (or load eagerly) when integrity is
    in question; the query layer optimizes the hot read path.

    ``watch`` (default True) makes ``fingerprint()`` stat the manifest
    and re-read it when an ingest/compaction commit replaced it, so a
    long-lived source (the telemetry server's) serves live data and
    never reuses a stale cache key.  A scan that races a compactor's
    file cleanup refreshes and retries once.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        verify_checksums: bool = False,
        watch: bool = True,
    ):
        self.directory = Path(path)
        self.io = IoStats()
        self._verify = verify_checksums
        self._watch = watch
        self._lock = threading.Lock()
        # Decoded segments and per-entry zone tables, keyed by
        # (file, sha256): both outlive manifest reloads, and a reload
        # evicts only the entries its manifest no longer lists.
        self._segments: OrderedDict[tuple, _NodeSlices] = OrderedDict()
        self._segment_bytes = 0
        self._parts: dict[tuple, ZoneTable] = {}
        self._load_manifest()

    # -- manifest snapshot -------------------------------------------------

    def _manifest_stat(self) -> tuple[int, int] | None:
        try:
            stat = os.stat(self.directory / MANIFEST_NAME)
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def _load_manifest(self) -> None:
        """(Re)build the scan index from the manifest on disk."""
        manifest = read_manifest(self.directory)
        covering: dict[str, list[dict]] = {}
        for entry in manifest["shards"]:
            for name in entry_nodes(entry):
                covering.setdefault(name, []).append(entry)
        for parts in covering.values():
            parts.sort(key=lambda e: int(e.get("seq") or 0))
        live = {_entry_key(entry) for entry in manifest["shards"]}
        with self._lock:
            self.manifest = manifest
            self._stat = self._manifest_stat()
            self._fingerprint = manifest_fingerprint(manifest)
            self._covering = covering
            self._table: ZoneTable | None = None
            for key in [key for key in self._segments if key not in live]:
                self._segment_bytes -= self._segments.pop(key).nbytes
            for key in [key for key in self._parts if key not in live]:
                del self._parts[key]

    def _zone_table(self) -> ZoneTable:
        """The snapshot's zone table: cached part tables, merged per node."""
        table = self._table
        if table is None:
            manifest = self.manifest
            table = ZoneTable.merge(
                [self._part_table(entry) for entry in manifest["shards"]]
            )
            with self._lock:
                if self.manifest is manifest:
                    self._table = table
        return table

    def _part_table(self, entry: dict) -> ZoneTable:
        """One manifest entry's zones, one row per node it covers.

        Per-node shards and segments up to ``NODE_ZONE_LIMIT`` nodes
        carry their zones in the manifest; a larger segment is decoded
        (once: it stays in the segment cache for the scans that follow)
        and its exact per-node zones are derived from the rows.
        """
        key = _entry_key(entry)
        table = self._parts.get(key)
        if table is not None:
            return table
        nodes = sorted(entry_nodes(entry))
        node_zones = entry.get("node_zones")
        if entry.get("node") is not None:
            table = ZoneTable.from_zone_maps(
                nodes, [entry.get("zone_map")], [entry.get("n_records")]
            )
        elif node_zones is not None:
            table = ZoneTable.from_zone_maps(
                nodes, [node_zones.get(name) for name in nodes]
            )
        else:
            table = self._segment_columns(entry).zone_table(nodes)
        with self._lock:
            self._parts[key] = table
        return table

    # -- source protocol ---------------------------------------------------

    def fingerprint(self) -> str:
        if self._watch and self._manifest_stat() != self._stat:
            self._load_manifest()
        return self._fingerprint

    def shards(self) -> ZoneTable:
        """Zone table of the current snapshot (see :mod:`repro.query.prune`)."""
        try:
            return self._zone_table()
        except (FileNotFoundError, ShardCorruptError):
            # Deriving zones decodes segments, which a compaction commit
            # may have unlinked since our snapshot: re-read once.
            if not self._watch:
                raise
            self._load_manifest()
            return self._zone_table()

    def close(self) -> None:
        """Drop decoded segments and zone tables (rebuilt on next use)."""
        with self._lock:
            self._segments.clear()
            self._segment_bytes = 0
            self._parts.clear()
            self._table = None

    def load_columns(self, node: str, names: set[str]) -> dict[str, np.ndarray]:
        """Read the named base columns for one node (counted I/O).

        Single-part nodes take the column-selective fast path: the npz
        member directory lets us decode only the requested arrays.
        Multi-part nodes (live archives) decode every covering entry —
        segments through a small LRU, since one segment serves many
        nodes — and merge the parts in canonical order.
        """
        try:
            return self._load_columns(node, names)
        except (FileNotFoundError, ShardCorruptError):
            # A compaction commit may have unlinked a consumed segment
            # between our manifest snapshot and this read; retry once
            # against the fresh manifest before giving up.
            if not self._watch:
                raise
            self._load_manifest()
            return self._load_columns(node, names)

    def _load_columns(self, node: str, names: set[str]) -> dict[str, np.ndarray]:
        entries = self._covering[node]
        if len(entries) == 1 and entries[0].get("node") is not None:
            return self._load_single(entries[0], node, names)
        parts: list[RecordColumns] = []
        for entry in entries:
            if entry.get("node") is not None:
                cols = _load_shard(
                    self.directory, entry, verify_checksum=self._verify
                )
                self._count_full_read(cols)
            else:
                cols = self._segment_columns(entry).get(node)
                if cols is None:
                    continue
            parts.append(cols)
        merged = merge_node_parts(parts)
        out: dict[str, np.ndarray] = {}
        for name in names:
            if name in SHARD_COLUMNS:
                out[name] = getattr(merged, name)
        if "node" in names:
            out["node"] = np.full(len(merged), node)
        return out

    def _segment_columns(self, entry: dict) -> _NodeSlices:
        """Decode a multi-node segment, indexed per node, LRU-cached."""
        key = _entry_key(entry)
        with self._lock:
            cached = self._segments.get(key)
            if cached is not None:
                self._segments.move_to_end(key)
                return cached
        cols = _load_shard(self.directory, entry, verify_checksum=self._verify)
        self._count_full_read(cols)
        slices = _NodeSlices(cols)
        with self._lock:
            if key not in self._segments:
                self._segments[key] = slices
                self._segment_bytes += slices.nbytes
            while (
                self._segment_bytes > SEGMENT_CACHE_BYTES
                and len(self._segments) > 1
            ):
                _, evicted = self._segments.popitem(last=False)
                self._segment_bytes -= evicted.nbytes
        return slices

    def _count_full_read(self, cols: RecordColumns) -> None:
        self.io.shards_read += 1
        self.io.columns_read += len(SHARD_COLUMNS)
        self.io.bytes_read += sum(
            getattr(cols, name).nbytes for name in SHARD_COLUMNS
        )

    def _load_single(
        self, entry: dict, node: str, names: set[str]
    ) -> dict[str, np.ndarray]:
        """Column-selective read of one per-node shard file."""
        path = self.directory / entry["file"]
        wanted = [n for n in names if n in SHARD_COLUMNS]
        out: dict[str, np.ndarray] = {}
        self.io.shards_read += 1
        if self._verify:
            payload = path.read_bytes()
            self.io.bytes_read += len(payload)
            digest = hashlib.sha256(payload).hexdigest()
            if digest != entry["sha256"]:
                from ..core.errors import ChecksumMismatchError

                raise ChecksumMismatchError(
                    f"shard {path} checksum mismatch", node=node
                )
            import io as _io

            npz_source = _io.BytesIO(payload)
        else:
            npz_source = path
        with NPZ_DECODE_LOCK, np.load(npz_source, allow_pickle=False) as npz:
            n = None
            for name in wanted:
                arr = np.asarray(npz[name], dtype=SHARD_COLUMNS[name])
                out[name] = arr
                n = int(arr.shape[0])
                self.io.columns_read += 1
                if not self._verify:
                    self.io.bytes_read += arr.nbytes
            if n is None:
                # A plan touching only `node`/derived-from-nothing still
                # needs the row count; `kind` is the narrowest column.
                n = int(np.asarray(npz["kind"]).shape[0])
                self.io.columns_read += 1
        if "node" in names:
            out["node"] = np.full(n, node)
        return out


class MemorySource:
    """An in-memory :class:`ColumnarArchive` behind the same interface."""

    def __init__(self, archive: ColumnarArchive):
        self.archive = archive
        self.io = IoStats()
        self._table: ZoneTable | None = None
        self._fingerprint: str | None = None

    def fingerprint(self) -> str:
        """Digest over per-node column bytes (computed once)."""
        if self._fingerprint is None:
            digest = hashlib.sha256()
            for node in self.archive.nodes:
                cols = self.archive.columns(node)
                digest.update(node.encode())
                for name in SHARD_COLUMNS:
                    digest.update(np.ascontiguousarray(getattr(cols, name)).tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def shards(self) -> ZoneTable:
        if self._table is None:
            nodes = self.archive.nodes
            self._table = ZoneTable.from_zone_maps(
                nodes,
                [compute_zone_map(self.archive.columns(node)) for node in nodes],
            )
        return self._table

    def load_columns(self, node: str, names: set[str]) -> dict[str, np.ndarray]:
        cols: RecordColumns = self.archive.columns(node)
        self.io.shards_read += 1
        out: dict[str, np.ndarray] = {}
        for name in names:
            if name in SHARD_COLUMNS:
                arr = getattr(cols, name)
                out[name] = arr
                self.io.columns_read += 1
                self.io.bytes_read += arr.nbytes
        if "node" in names:
            out["node"] = np.full(len(cols), node)
        return out


def _entry_key(entry: dict) -> tuple:
    return (entry["file"], entry.get("sha256"))


def as_source(target):
    """Normalize a path / ColumnarArchive / source into a source.

    Anything exposing the source protocol (``fingerprint``/``shards``/
    ``load_columns``) passes through, so callers can wrap a source —
    e.g. to throttle or fault-inject shard reads in tests.
    """
    if isinstance(target, ColumnarArchive):
        return MemorySource(target)
    if hasattr(target, "shards") and hasattr(target, "load_columns"):
        return target
    return ArchiveSource(target)
