"""Fixtures for the query-engine suite.

Two populations:

* the frozen golden corpus (four nodes, every record kind, one
  temperature-less error), in memory and saved as a columnar archive;
* a synthetic archive with *staggered per-node time windows* — node k's
  records live in ``[k*WINDOW_HOURS, (k+1)*WINDOW_HOURS)`` — so a
  timestamp-range predicate has a knowable set of matching shards and
  pruning is observable through the I/O counters.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.logs.columnar import (
    KIND_END,
    KIND_ERROR,
    KIND_START,
    ColumnarArchive,
    RecordColumns,
)

GOLDEN = Path(__file__).parents[1] / "data" / "golden_logs"

#: Width of each synthetic node's private time window (hours).
WINDOW_HOURS = 100.0


def make_node_columns(
    node: str,
    n_errors: int,
    rng: np.random.Generator,
    *,
    t_lo: float,
    t_hi: float,
) -> RecordColumns:
    """One node's columns: START + errors + END inside [t_lo, t_hi).

    Errors mix single- and multi-bit flips, logged and NaN temperatures,
    and varied repeat counts — every axis a plan can filter on.
    """
    n = n_errors + 2
    kind = np.full(n, KIND_ERROR, dtype=np.uint8)
    kind[0], kind[-1] = KIND_START, KIND_END
    span = t_hi - t_lo
    t = np.empty(n, dtype=np.float64)
    t[0], t[-1] = t_lo, t_lo + span * 0.999
    t[1:-1] = np.sort(rng.uniform(t_lo + 0.01 * span, t_lo + 0.99 * span, n_errors))
    temp = np.full(n, np.nan, dtype=np.float64)
    logged = rng.random(n_errors) > 0.25
    temp[1:-1][logged] = np.round(rng.uniform(18.0, 95.0, int(logged.sum())), 2)
    expected = np.zeros(n, dtype=np.uint32)
    actual = np.zeros(n, dtype=np.uint32)
    expected[1:-1] = rng.integers(0, 2**32, n_errors, dtype=np.uint32)
    n_flips = rng.integers(1, 8, n_errors)
    masks = np.zeros(n_errors, dtype=np.uint32)
    for i in range(n_errors):
        bits = rng.choice(32, size=int(n_flips[i]), replace=False)
        masks[i] = np.bitwise_or.reduce((np.uint32(1) << bits.astype(np.uint32)))
    actual[1:-1] = expected[1:-1] ^ masks
    word = rng.integers(0, 1 << 18, n, dtype=np.int64)
    rep = np.ones(n, dtype=np.int64)
    rep[1:-1] = rng.integers(1, 40, n_errors)
    mb = np.zeros(n, dtype=np.int64)
    mb[0] = 3072
    return RecordColumns(
        kind=kind,
        t=t,
        temp=temp,
        mb=mb,
        va=word * 4,
        pp=word // 1024,
        expected=expected,
        actual=actual,
        rep=rep,
        node_code=np.zeros(n, dtype=np.int32),
        node_names=[node],
    )


def make_staggered_archive(
    n_nodes: int = 10, n_errors: int = 40, seed: int = 20160
) -> ColumnarArchive:
    rng = np.random.default_rng(seed)
    by_node = {}
    for k in range(n_nodes):
        node = f"{k // 16:02d}-{k % 16:02d}"
        by_node[node] = make_node_columns(
            node,
            n_errors,
            rng,
            t_lo=k * WINDOW_HOURS,
            t_hi=(k + 1) * WINDOW_HOURS,
        )
    return ColumnarArchive(by_node)


@pytest.fixture(scope="module")
def golden_archive() -> ColumnarArchive:
    return ColumnarArchive.read_text_directory(GOLDEN)


@pytest.fixture(scope="module")
def golden_dir(golden_archive, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("golden-columnar")
    golden_archive.save(path)
    return path


@pytest.fixture(scope="module")
def staggered_archive() -> ColumnarArchive:
    return make_staggered_archive()


@pytest.fixture(scope="module")
def staggered_dir(staggered_archive, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("staggered-columnar")
    staggered_archive.save(path)
    return path
