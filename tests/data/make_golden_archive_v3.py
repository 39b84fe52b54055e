"""Regenerate the frozen v3 live-archive fixture.

Run from the repository root::

    PYTHONPATH=src python tests/data/make_golden_archive_v3.py

The fixture under ``tests/data/golden_archive_v3`` holds the golden log
corpus (``golden_logs``) as a *live* format-v3 archive with a mixed
manifest the upgrade/compat tests need: one compacted level-1 run
(nodes 01-01 and 01-02, merged from a consumed L0 commit) plus one
still-uncompacted level-0 segment (02-07 and 63-15), a non-trivial
batch ledger, and generation/seq counters past their initial values.

The fixture is frozen: tests pin its manifest fingerprint, so only
regenerate it deliberately and re-freeze the constant in
``tests/logs/test_golden_v3.py``.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.logs.columnar import directory_log_files, node_stem, read_log_file
from repro.logs.ingest import LiveArchive, compact_archive

GOLDEN = Path(__file__).parent / "golden_logs"
OUT = Path(__file__).parent / "golden_archive_v3"


def main() -> None:
    if OUT.exists():
        shutil.rmtree(OUT)
    by_node = {
        node_stem(path): read_log_file(path)
        for path in directory_log_files(GOLDEN)
    }
    live = LiveArchive.create(OUT)
    live.append_batch(
        {f"unit:{node}": by_node[node] for node in ("01-01", "01-02")}
    )
    compact_archive(OUT)
    live.append_batch(
        {f"unit:{node}": by_node[node] for node in ("02-07", "63-15")}
    )
    live.refresh()
    manifest = live.manifest
    print(f"wrote {manifest['n_nodes']} nodes to {OUT}")
    print(f"generation={manifest['generation']} next_seq={manifest['next_seq']}")
    print(f"levels={sorted(int(e['level']) for e in manifest['shards'])}")
    print(f"fingerprint={live.fingerprint()}")


if __name__ == "__main__":
    main()
