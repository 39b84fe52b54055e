"""Live storage engine: append-only ingest + LSM-style shard compaction.

The batch path (:meth:`ColumnarArchive.save`) needs every node's records
in RAM before a single byte reaches disk.  This module is the streaming
alternative: campaign workers hand small record batches to
:meth:`LiveArchive.append_batch`, which commits them as level-0 segment
shards; a background :func:`compact_archive` pass merges accumulated
small segments into large sorted per-node runs, LSM-style, so the read
path never degrades past a bounded number of parts per node.

Commit protocol (shared by ingest and compaction, see docs/STORAGE.md):

1. segment ``.npz.tmp`` written + fsync'd          [segment-temp-written]
2. ``os.replace`` tmp -> final segment file        [segment-published]
3. manifest tmp written + fsync'd                  [manifest-temp-written]
4. ``os.replace`` manifest tmp -> manifest.json    [manifest-committed]
5. (compaction only) consumed files unlinked       [obsolete-removed]

Step 4 is the *only* commit point.  A crash anywhere before it leaves
the previous manifest fully intact; files from steps 1-3 are orphans
swept by the next :meth:`LiveArchive.open`.  A crash after it leaves
the new manifest; step 5 is best-effort cleanup, and any consumed files
that survive it are likewise swept as orphans.  The bracketed names are
the chaos injection points the crash-safety tests kill at
(``f"{op}:{step}"`` with ``op`` in ``ingest``/``compact``).

Exactly-once ingest: the manifest carries a ``batches`` ledger of
committed batch ids.  Re-appending an already-committed id is a no-op,
so a campaign resuming after a crash (or a retried RPC) can blindly
replay its stream without duplicating a record.

All writers serialize through a ``.ingest.lock`` file lock; readers
never take it (the manifest swap is atomic).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..cache import FileLock
from ..core.errors import ColumnarFormatError
from ..core.fsio import fsync_dir
from .columnar import (
    FORMAT_NAME,
    FORMAT_VERSION,
    MANIFEST_NAME,
    SHARD_COLUMNS,
    RecordColumns,
    _load_shard,
    canonical_sort_order,
    compute_zone_map,
    entry_nodes,
    group_zone_columns,
    manifest_fingerprint,
    read_manifest,
    shard_payload,
    write_manifest_atomic,
    zone_maps_of,
)

LOCK_NAME = ".ingest.lock"

#: Segments covering at most this many nodes carry exact per-node
#: ``node_zones`` in their manifest entry, which keeps pruning-counter
#: behaviour identical before and after compaction.  Larger segments
#: (fleet-scale flushes) carry only the aggregate ``zone_map`` so the
#: manifest stays bounded; a query source derives their exact per-node
#: zones from the segment itself when it first decodes it.
NODE_ZONE_LIMIT = 256

#: Chaos injection points of one segment+manifest commit, in protocol
#: order.  Crash tests kill at ``f"ingest:{step}"`` / ``f"compact:{step}"``.
INGEST_COMMIT_STEPS = (
    "segment-temp-written",
    "segment-published",
    "manifest-temp-written",
    "manifest-committed",
)

#: Compaction adds a planning step before and cleanup step after.
COMPACT_COMMIT_STEPS = ("planned",) + INGEST_COMMIT_STEPS + ("obsolete-removed",)


def _step(chaos, op: str, name: str) -> None:
    """Fire one crash-injection point (no-op without a chaos plan)."""
    if chaos is not None:
        chaos.apply(f"{op}:{name}", 1)


def _segment_filename(seq: int, level: int) -> str:
    return f"seg-{seq:08d}-L{level}.npz"


def _group_by_node(cols: RecordColumns) -> tuple[RecordColumns, list[str], np.ndarray]:
    """Rows grouped by node in name order, each node in canonical order.

    One :func:`canonical_sort_order` keyed on each row's node rank and
    one ``take``: rows that tie on ``(t, kind)`` keep their input order,
    as a stable sort of each node on its own would keep them.  Returns
    the grouped columns, the sorted node names and each name's row
    count (a name without rows counts 0).
    """
    by_name = sorted(range(len(cols.node_names)), key=cols.node_names.__getitem__)
    rank = np.empty(len(by_name), dtype=np.int64)
    rank[by_name] = np.arange(len(by_name))
    node_rank = rank[cols.node_code]
    grouped = cols.take(canonical_sort_order(cols.t, cols.kind, group=node_rank))
    counts = np.bincount(node_rank, minlength=len(by_name))
    return grouped, [cols.node_names[code] for code in by_name], counts


def _publish_segment(
    directory: Path,
    cols: RecordColumns,
    names: list[str],
    counts: np.ndarray,
    *,
    seq: int,
    level: int,
    chaos=None,
    op: str = "ingest",
) -> dict:
    """Durably write one segment file; return its manifest entry.

    ``cols`` holds the segment's rows grouped by node in the order of
    ``names`` (sorted), each node's rows already in canonical order, and
    ``counts[i]`` is the row count of ``names[i]``.  A single-part node
    read back from this segment is therefore in final order without
    re-sorting.  A name without rows is listed in the entry (``nodes``,
    ``n_nodes``, ``node_zones``) but not in the payload's
    ``node_names``.  The manifest entry is returned but NOT yet
    committed — the caller owns the manifest swap (the commit point).
    """
    single = names[0] if len(names) == 1 else None
    if single is not None:
        held, node_code = [single], np.zeros(len(cols), dtype=np.int32)
    else:
        held = [names[index] for index in np.flatnonzero(counts)]
        node_code = np.repeat(
            np.arange(len(held), dtype=np.int32), counts[counts > 0]
        )
    cols = RecordColumns(
        **{column: getattr(cols, column) for column in SHARD_COLUMNS},
        node_code=node_code,
        node_names=held,
    )
    payload = shard_payload(cols, single if single is not None else "")
    filename = _segment_filename(seq, level)
    tmp = directory / (filename + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    _step(chaos, op, "segment-temp-written")
    os.replace(tmp, directory / filename)
    fsync_dir(directory)
    _step(chaos, op, "segment-published")
    entry = {
        "node": single,
        "file": filename,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "n_records": len(cols),
        "n_errors": cols.n_errors,
        "n_raw_lines": cols.n_raw_lines,
        "zone_map": compute_zone_map(cols),
        "level": level,
        "seq": seq,
    }
    if single is None:
        entry["nodes"] = names
        entry["n_nodes"] = len(names)
        if len(names) <= NODE_ZONE_LIMIT:
            entry["node_zones"] = dict(
                zip(names, zone_maps_of(group_zone_columns(cols, counts)))
            )
    return entry


def _refresh_totals(manifest: dict) -> None:
    """Recompute archive totals from the (new) entry population."""
    entries = manifest["shards"]
    nodes: set[str] = set()
    for entry in entries:
        nodes.update(entry_nodes(entry))
    manifest["n_nodes"] = len(nodes)
    manifest["n_records"] = sum(int(e.get("n_records") or 0) for e in entries)
    manifest["n_errors"] = sum(int(e.get("n_errors") or 0) for e in entries)
    manifest["n_raw_lines"] = sum(int(e.get("n_raw_lines") or 0) for e in entries)


def _fresh_manifest() -> dict:
    from .. import __version__

    return {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "writer": f"repro {__version__}",
        "generation": 0,
        "next_seq": 0,
        "batches": [],
        "n_nodes": 0,
        "n_records": 0,
        "n_errors": 0,
        "n_raw_lines": 0,
        "shards": [],
    }


@dataclass
class IngestReport:
    """Outcome of one :meth:`LiveArchive.append_batch` commit."""

    generation: int
    committed: list[str] = field(default_factory=list)
    deduplicated: list[str] = field(default_factory=list)
    n_records: int = 0
    segment: str | None = None

    def to_dict(self) -> dict:
        return {
            "generation": self.generation,
            "committed": list(self.committed),
            "deduplicated": list(self.deduplicated),
            "n_records": self.n_records,
            "segment": self.segment,
        }


@dataclass
class CompactionReport:
    """Outcome of one :func:`compact_archive` pass."""

    generation: int
    entries_before: int
    entries_after: int
    entries_consumed: int
    segments_written: int
    n_components: int
    n_records: int
    max_level: int
    dry_run: bool = False

    def to_dict(self) -> dict:
        return {
            "generation": self.generation,
            "entries_before": self.entries_before,
            "entries_after": self.entries_after,
            "entries_consumed": self.entries_consumed,
            "segments_written": self.segments_written,
            "n_components": self.n_components,
            "n_records": self.n_records,
            "max_level": self.max_level,
            "dry_run": self.dry_run,
        }


class LiveArchive:
    """Append-only writer handle on a v3 columnar archive directory.

    Readers keep using :class:`ColumnarArchive.load` /
    :class:`repro.query.source.ArchiveSource` on the same directory —
    every committed state is a complete, valid archive.
    """

    def __init__(self, directory: Path, manifest: dict):
        self.directory = directory
        self.manifest = manifest

    # -- constructors ------------------------------------------------------

    @classmethod
    def create(cls, path: str | Path, *, exist_ok: bool = True) -> "LiveArchive":
        """Initialize an empty v3 archive (or open an existing one)."""
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        if (directory / MANIFEST_NAME).exists():
            if not exist_ok:
                raise ColumnarFormatError(
                    f"archive already exists: {directory / MANIFEST_NAME}"
                )
            return cls.open(directory)
        write_manifest_atomic(directory / MANIFEST_NAME, _fresh_manifest())
        return cls(directory, read_manifest(directory))

    @classmethod
    def open(cls, path: str | Path) -> "LiveArchive":
        """Open an existing v3 archive for appending; sweeps orphans."""
        directory = Path(path)
        manifest = read_manifest(directory)
        if int(manifest["format_version"]) != FORMAT_VERSION:
            raise ColumnarFormatError(
                f"live ingest requires a v{FORMAT_VERSION} archive, found "
                f"v{manifest['format_version']}: run `repro logs upgrade "
                f"{directory}` first"
            )
        archive = cls(directory, manifest)
        archive.sweep()
        return archive

    # -- introspection -----------------------------------------------------

    @property
    def generation(self) -> int:
        return int(self.manifest.get("generation") or 0)

    @property
    def committed_batches(self) -> list[str]:
        return list(self.manifest.get("batches") or [])

    def fingerprint(self) -> str:
        return manifest_fingerprint(self.manifest)

    def refresh(self) -> dict:
        """Re-read the manifest (another process may have committed)."""
        self.manifest = read_manifest(self.directory)
        return self.manifest

    # -- writes ------------------------------------------------------------

    def append_batch(
        self, batches: dict[str, RecordColumns], *, chaos=None
    ) -> IngestReport:
        """Commit named record batches as one level-0 segment.

        ``batches`` maps a stable batch id (e.g. ``unit:<node>``) to the
        rows it contributes; ids already in the manifest's ledger are
        dropped (exactly-once semantics under replay).  All fresh rows
        land in a single multi-node L0 segment, each node's rows sorted
        into canonical order at append time so compaction later merges
        already-sorted runs.  Empty batches still enter the ledger.
        """
        with FileLock(self.directory / LOCK_NAME):
            manifest = read_manifest(self.directory)
            committed = set(manifest.get("batches") or [])
            fresh = {
                batch_id: cols
                for batch_id, cols in batches.items()
                if batch_id not in committed
            }
            deduplicated = sorted(set(batches) - set(fresh))
            if not fresh:
                self.manifest = manifest
                return IngestReport(
                    generation=self.generation, deduplicated=deduplicated
                )
            nonempty = [cols for cols in fresh.values() if len(cols)]
            entry = None
            if nonempty:
                merged = (
                    RecordColumns.concat(nonempty)
                    if len(nonempty) > 1
                    else nonempty[0]
                )
                seq = int(manifest["next_seq"])
                entry = _publish_segment(
                    self.directory,
                    *_group_by_node(merged),
                    seq=seq,
                    level=0,
                    chaos=chaos,
                    op="ingest",
                )
                manifest["shards"].append(entry)
                manifest["next_seq"] = seq + 1
            manifest["generation"] = int(manifest.get("generation") or 0) + 1
            manifest["batches"] = sorted(committed | set(fresh))
            _refresh_totals(manifest)
            write_manifest_atomic(
                self.directory / MANIFEST_NAME,
                manifest,
                before_replace=lambda: _step(
                    chaos, "ingest", "manifest-temp-written"
                ),
            )
            _step(chaos, "ingest", "manifest-committed")
            self.manifest = manifest
            return IngestReport(
                generation=self.generation,
                committed=sorted(fresh),
                deduplicated=deduplicated,
                n_records=int(entry["n_records"]) if entry else 0,
                segment=entry["file"] if entry else None,
            )

    def sweep(self) -> list[str]:
        """Remove torn temp files and unreferenced segment orphans.

        Safe whenever the lock is free: writers hold it across their
        whole publish+commit window, so under the lock every ``.tmp``
        is torn and every unreferenced ``.npz`` is an orphan from a
        crashed commit (or a consumed segment whose unlink was lost).
        """
        removed: list[str] = []
        with FileLock(self.directory / LOCK_NAME):
            manifest = read_manifest(self.directory)
            referenced = {entry["file"] for entry in manifest["shards"]}
            for path in sorted(self.directory.iterdir()):
                name = path.name
                if not path.is_file() or name in (MANIFEST_NAME, LOCK_NAME):
                    continue
                if name.endswith(".tmp") or (
                    name.endswith(".npz") and name not in referenced
                ):
                    path.unlink()
                    removed.append(name)
            self.manifest = manifest
        return removed

    def compact(self, **kwargs) -> CompactionReport:
        report = compact_archive(self.directory, **kwargs)
        self.refresh()
        return report


def _plan_components(entries: list[dict]) -> list[list[int]]:
    """Group compactable entries into connected components.

    An entry needs compaction if it is level 0 or shares a node with
    another entry.  Consuming an entry consumes *all* its nodes, which
    transitively pulls in every other entry covering them — so the unit
    of work is a connected component of the entry/node bipartite graph.
    Components are processed one at a time, which is what bounds
    compaction memory at fleet scale (disjoint node ranges stay in
    separate components).
    """
    covering: dict[str, list[int]] = {}
    for index, entry in enumerate(entries):
        for name in entry_nodes(entry):
            covering.setdefault(name, []).append(index)
    seeds = {
        index
        for index, entry in enumerate(entries)
        if int(entry.get("level") or 0) == 0
        or any(len(covering[name]) > 1 for name in entry_nodes(entry))
    }
    assigned: dict[int, int] = {}
    components: list[list[int]] = []
    for seed in sorted(seeds):
        if seed in assigned:
            continue
        component: list[int] = []
        frontier = [seed]
        assigned[seed] = len(components)
        while frontier:
            index = frontier.pop()
            component.append(index)
            for name in entry_nodes(entries[index]):
                for other in covering[name]:
                    if other not in assigned:
                        assigned[other] = len(components)
                        frontier.append(other)
        components.append(sorted(component))
    return components


def _segment_cuts(counts: np.ndarray, max_rows: int, max_nodes: int) -> list[int]:
    """Name indices that bound compaction's output segments.

    Nodes are packed in name order; a node starts a new segment when
    adding it would pass ``max_rows`` rows or the segment already holds
    ``max_nodes`` nodes.  A node is never split.
    """
    cuts = [0]
    rows = 0
    # repro: noqa[NPY002]: one packing decision per node — O(nodes), not O(rows)
    for index, count in enumerate(counts.tolist()):
        if index > cuts[-1] and (rows + count > max_rows or index - cuts[-1] >= max_nodes):
            cuts.append(index)
            rows = 0
        rows += count
    if counts.shape[0]:
        cuts.append(counts.shape[0])
    return cuts


def compact_archive(
    path: str | Path,
    *,
    max_segment_rows: int = 1_000_000,
    max_segment_nodes: int = 256,
    verify_checksums: bool = True,
    chaos=None,
    dry_run: bool = False,
) -> CompactionReport:
    """Merge small/overlapping segments into sorted higher-level runs.

    Every node touched by the pass ends up covered by exactly one output
    segment, its parts merged in commit (``seq``) order through the
    canonical sort — byte-identical to what a batch
    ``ColumnarArchive.save`` of the same records would hold.  Untouched
    entries (already-compacted single-coverage runs) pass through
    unmodified, checksums intact.  The whole pass commits atomically in
    one manifest swap; ``dry_run`` reports the plan without writing.
    """
    directory = Path(path)
    with FileLock(directory / LOCK_NAME):
        manifest = read_manifest(directory)
        if int(manifest["format_version"]) != FORMAT_VERSION:
            raise ColumnarFormatError(
                f"compaction requires a v{FORMAT_VERSION} archive, found "
                f"v{manifest['format_version']}: run `repro logs upgrade "
                f"{directory}` first"
            )
        entries = list(manifest["shards"])
        components = _plan_components(entries)
        consumed = sorted(index for component in components for index in component)
        generation = int(manifest.get("generation") or 0)
        if dry_run or not components:
            return CompactionReport(
                generation=generation,
                entries_before=len(entries),
                entries_after=len(entries) - len(consumed) + len(components),
                entries_consumed=len(consumed),
                segments_written=0,
                n_components=len(components),
                n_records=sum(
                    int(entries[i].get("n_records") or 0) for i in consumed
                ),
                max_level=max(
                    (int(entries[i].get("level") or 0) + 1 for i in consumed),
                    default=0,
                ),
                dry_run=dry_run,
            )
        _step(chaos, "compact", "planned")
        next_seq = int(manifest["next_seq"])
        new_entries: list[dict] = []
        rows_consumed = 0
        rows_written = 0
        max_level = 0
        for component in components:
            level = 1 + max(
                int(entries[index].get("level") or 0) for index in component
            )
            max_level = max(max_level, level)
            # Load the component's parts in commit (seq) order and merge
            # them with ONE grouped stable sort: node name first, then
            # the canonical (t, kind) key, ties staying in concat = seq
            # order.  Row for row this equals merging each node's parts
            # separately, but it touches every row exactly once, and the
            # output segments are row ranges of the grouped columns.
            ordered = sorted(
                (entries[index] for index in component),
                key=lambda e: int(e.get("seq") or 0),
            )
            loaded = [
                _load_shard(directory, entry, verify_checksum=verify_checksums)
                for entry in ordered
            ]
            rows_consumed += sum(len(cols) for cols in loaded)
            merged = (
                RecordColumns.concat(loaded) if len(loaded) > 1 else loaded[0]
            )
            del loaded
            grouped, names, counts = _group_by_node(merged)
            del merged
            row_bounds = np.concatenate([[0], np.cumsum(counts)])
            cuts = _segment_cuts(counts, max_segment_rows, max_segment_nodes)
            for lo, hi in zip(cuts, cuts[1:]):
                new_entries.append(
                    _publish_segment(
                        directory,
                        grouped.take(slice(row_bounds[lo], row_bounds[hi])),
                        names[lo:hi],
                        counts[lo:hi],
                        seq=next_seq,
                        level=level,
                        chaos=chaos,
                        op="compact",
                    )
                )
                next_seq += 1
                rows_written += int(row_bounds[hi] - row_bounds[lo])
        if rows_written != rows_consumed:  # pragma: no cover - invariant
            raise ColumnarFormatError(
                f"compaction row mismatch: consumed {rows_consumed}, "
                f"wrote {rows_written}"
            )
        consumed_set = set(consumed)
        consumed_files = [entries[index]["file"] for index in consumed]
        manifest["shards"] = [
            entry
            for index, entry in enumerate(entries)
            if index not in consumed_set
        ] + new_entries
        manifest["generation"] = generation + 1
        manifest["next_seq"] = next_seq
        _refresh_totals(manifest)
        write_manifest_atomic(
            directory / MANIFEST_NAME,
            manifest,
            before_replace=lambda: _step(
                chaos, "compact", "manifest-temp-written"
            ),
        )
        _step(chaos, "compact", "manifest-committed")
        # Best-effort cleanup: survivors are orphans, swept on next open.
        for filename in consumed_files:
            try:
                os.unlink(directory / filename)
            except OSError:
                pass
        _step(chaos, "compact", "obsolete-removed")
        return CompactionReport(
            generation=generation + 1,
            entries_before=len(entries),
            entries_after=len(manifest["shards"]),
            entries_consumed=len(consumed),
            segments_written=len(new_entries),
            n_components=len(components),
            n_records=rows_written,
            max_level=max_level,
        )


