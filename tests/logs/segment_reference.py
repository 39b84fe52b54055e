"""Per-node segment assembly: the reference the live writer is checked against.

:meth:`repro.logs.ingest.LiveArchive.append_batch` and
:func:`repro.logs.ingest.compact_archive` order a batch with one grouped
sort and write its rows as row ranges.  This module builds the same
segments the straightforward way, one node at a time: split the rows by
node, sort each node canonically, and concatenate the nodes in name
order.  The payload bytes and the manifest entry of every segment must
match the writer's exactly (``tests/logs/test_segment_writer.py``).
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.logs.columnar import (
    RecordColumns,
    _load_shard,
    canonical_sort_order,
    compute_zone_map,
    group_zone_columns,
    shard_payload,
    zone_maps_of,
)
from repro.logs.ingest import NODE_ZONE_LIMIT, _plan_components


def segment(per_node: dict[str, RecordColumns], *, seq: int, level: int) -> tuple[bytes, dict]:
    """Payload bytes and manifest entry of one segment.

    ``per_node`` maps each node to its rows, already in canonical order.
    A node without rows is still listed in the entry's ``nodes``,
    ``n_nodes`` and ``node_zones``, but not in the payload's
    ``node_names``.
    """
    names = sorted(per_node)
    ordered = [per_node[name] for name in names]
    cols = RecordColumns.concat(ordered) if len(ordered) > 1 else ordered[0]
    single = names[0] if len(names) == 1 else None
    payload = shard_payload(cols, single if single is not None else "")
    entry = {
        "node": single,
        "file": f"seg-{seq:08d}-L{level}.npz",
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
            counts = [len(part) for part in ordered]
            entry["node_zones"] = dict(
                zip(names, zone_maps_of(group_zone_columns(cols, counts)))
            )
    return payload, entry


def sorted_per_node(cols: RecordColumns) -> dict[str, RecordColumns]:
    """Each node's rows in canonical order (ties keep their input order)."""
    return {
        name: sub.take(canonical_sort_order(sub.t, sub.kind))
        for name, sub in cols.split_by_node().items()
    }


def append_segment(batches: list[RecordColumns], *, seq: int) -> tuple[bytes, dict] | None:
    """The level-0 segment one commit of these fresh batches writes."""
    nonempty = [cols for cols in batches if len(cols)]
    if not nonempty:
        return None
    merged = RecordColumns.concat(nonempty) if len(nonempty) > 1 else nonempty[0]
    return segment(sorted_per_node(merged), seq=seq, level=0)


def compaction_segments(
    directory: Path,
    manifest: dict,
    *,
    max_segment_rows: int,
    max_segment_nodes: int,
) -> list[tuple[bytes, dict]]:
    """The segments one compaction pass over ``manifest`` writes, in order."""
    entries = list(manifest["shards"])
    next_seq = int(manifest["next_seq"])
    out = []
    for component in _plan_components(entries):
        level = 1 + max(int(entries[index].get("level") or 0) for index in component)
        ordered = sorted(
            (entries[index] for index in component),
            key=lambda e: int(e.get("seq") or 0),
        )
        loaded = [_load_shard(directory, entry) for entry in ordered]
        merged = RecordColumns.concat(loaded) if len(loaded) > 1 else loaded[0]
        per_node = sorted_per_node(merged)
        bucket: dict[str, RecordColumns] = {}
        bucket_rows = 0
        for name in sorted(per_node):
            cols = per_node[name]
            if bucket and (
                bucket_rows + len(cols) > max_segment_rows
                or len(bucket) >= max_segment_nodes
            ):
                out.append(segment(bucket, seq=next_seq, level=level))
                next_seq += 1
                bucket, bucket_rows = {}, 0
            bucket[name] = cols
            bucket_rows += len(cols)
        if bucket:
            out.append(segment(bucket, seq=next_seq, level=level))
            next_seq += 1
    return out
