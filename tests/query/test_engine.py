"""Engine tests: correctness vs brute force, pruning vs I/O, caching.

The property tests are the core contract: for random predicate
conjunctions, the vectorized engine must return exactly the rows a
per-record Python loop over ``RecordColumns.to_records()`` keeps, and
pruning must never change a result (zone maps are an optimization, not
a semantic).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import QueryPlanError
from repro.logs.columnar import KIND_ERROR, ColumnarArchive, RecordColumns
from repro.query import (
    Aggregate,
    ArchiveSource,
    Derive,
    MemorySource,
    Predicate,
    Query,
    QueryCache,
    QueryEngine,
)

from .conftest import WINDOW_HOURS, make_staggered_archive

# ---------------------------------------------------------------------------
# Brute-force reference
# ---------------------------------------------------------------------------


#: ``n_days`` of the ``day`` derive; shorter than the archive's span so
#: the clip onto the last day is exercised.
N_DAYS = 20


def _record_row(node: str, rec) -> dict:
    """Flatten an ErrorRecord into the engine's column vocabulary."""
    temp = math.nan if rec.temperature_c is None else float(rec.temperature_c)
    t = float(rec.timestamp_hours)
    n_bits = bin((rec.expected ^ rec.actual) & 0xFFFFFFFF).count("1")
    return {
        "node": node,
        "t": t,
        "temp": temp,
        "rep": int(rec.repeat_count),
        "va": int(rec.virtual_address),
        "pp": int(rec.physical_page),
        "n_bits": n_bits,
        "hour": int(t % 24.0) % 24,
        "day": min(max(int(t // 24.0), 0), N_DAYS - 1),
        "bit_bucket": min(n_bits, 6),
        # The ErrorFrame's float32 temperature column, widened back.
        "temp_c": float(np.float32(temp)),
    }


def _matches(pred: Predicate, row: dict) -> bool:
    value = row[pred.column]
    isnan = isinstance(value, float) and math.isnan(value)
    if pred.op == "isnull":
        return isnan
    if pred.op == "notnull":
        return not isnan
    if pred.op == "in":
        return value in pred.value
    if pred.op == "eq":
        return value == pred.value
    if pred.op == "ne":
        return value != pred.value
    if pred.op == "lt":
        return value < pred.value
    if pred.op == "le":
        return value <= pred.value
    if pred.op == "gt":
        return value > pred.value
    if pred.op == "ge":
        return value >= pred.value
    raise AssertionError(pred.op)


def brute_force_rows(
    archive: ColumnarArchive, predicates: tuple[Predicate, ...]
) -> list[tuple]:
    """ERROR rows surviving the conjunction, via to_records() + Python."""
    kept = []
    for node in archive.nodes:
        for rec in archive.error_records(node):
            row = _record_row(node, rec)
            if all(_matches(p, row) for p in predicates):
                kept.append((row["node"], row["t"], row["va"], row["rep"]))
    return sorted(kept)


def result_rows(result) -> list[tuple]:
    cols = result.columns
    temp_free = zip(
        cols["node"].tolist(), cols["t"].tolist(),
        cols["va"].tolist(), cols["rep"].tolist(),
    )
    return sorted(temp_free)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

ARCHIVE = make_staggered_archive(n_nodes=6, n_errors=25, seed=777)
NODE_NAMES = list(ARCHIVE.nodes)
T_MAX = 6 * WINDOW_HOURS

_CMP = st.sampled_from(["lt", "le", "gt", "ge", "eq", "ne"])

_predicate = st.one_of(
    st.builds(
        lambda op, v: Predicate("t", op, round(v, 3)),
        _CMP, st.floats(0.0, T_MAX, allow_nan=False),
    ),
    st.builds(
        lambda op, v: Predicate("temp", op, round(v, 2)),
        _CMP, st.floats(15.0, 100.0, allow_nan=False),
    ),
    st.sampled_from([Predicate("temp", "isnull"), Predicate("temp", "notnull")]),
    st.builds(lambda n: Predicate("node", "eq", n), st.sampled_from(NODE_NAMES)),
    st.builds(
        lambda ns: Predicate("node", "in", sorted(ns)),
        st.sets(st.sampled_from(NODE_NAMES), min_size=1, max_size=3),
    ),
    st.builds(lambda op, v: Predicate("rep", op, v), _CMP, st.integers(1, 40)),
    st.builds(lambda op, v: Predicate("n_bits", op, v), _CMP, st.integers(0, 8)),
    st.builds(lambda op, v: Predicate("hour", op, v), _CMP, st.integers(0, 23)),
    st.builds(
        lambda op, v: Predicate("day", op, v), _CMP, st.integers(0, N_DAYS - 1)
    ),
    st.builds(
        lambda op, v: Predicate("bit_bucket", op, v), _CMP, st.integers(0, 7)
    ),
    st.builds(
        lambda op, v: Predicate("temp_c", op, round(v, 2)),
        _CMP, st.floats(15.0, 100.0, allow_nan=False),
    ),
    st.sampled_from(
        [Predicate("temp_c", "isnull"), Predicate("temp_c", "notnull")]
    ),
)

#: Derive spec per derived column the predicates above can reference.
_DERIVES = {
    "n_bits": Derive("n_bits", "n_bits"),
    "hour": Derive("hour", "hour"),
    "day": Derive("day", "day", {"n_days": N_DAYS}),
    "bit_bucket": Derive("bit_bucket", "bit_bucket"),
    "temp_c": Derive("temp_c", "temp_c"),
}


def _plan(predicates: list[Predicate]) -> Query:
    referenced = {p.column for p in predicates}
    derive = tuple(spec for name, spec in _DERIVES.items() if name in referenced)
    return Query(
        filters=(Predicate("kind", "eq", int(KIND_ERROR)), *predicates),
        derive=derive,
        project=("node", "t", "va", "rep"),
    )


@settings(max_examples=60, deadline=None)
@given(predicates=st.lists(_predicate, max_size=3))
def test_engine_matches_brute_force(predicates):
    """Engine output == per-record Python filter, for random plans."""
    plan = _plan(predicates)
    engine = QueryEngine(MemorySource(ARCHIVE))
    result = engine.execute(plan, use_cache=False)
    # error_records() already restricts to ERROR rows, so the brute force
    # applies only the random predicates on top of that.
    assert result_rows(result) == brute_force_rows(ARCHIVE, tuple(predicates))


@pytest.mark.parametrize("column", sorted(_DERIVES))
def test_derived_column_matches_brute_force(column):
    """Each derive, projected over every ERROR row, equals _record_row's."""
    result = QueryEngine(MemorySource(ARCHIVE)).execute(Query(
        filters=(Predicate("kind", "eq", int(KIND_ERROR)),),
        derive=(_DERIVES[column],),
        project=("node", "t", column),
    ), use_cache=False)

    def key(node, t, value):
        return (node, t, None if value != value else value)  # NaN-aware

    got = sorted(map(key, *(result.column(c).tolist() for c in ("node", "t", column))))
    expected = sorted(
        key(node, row["t"], row[column])
        for node in ARCHIVE.nodes
        for row in (_record_row(node, rec) for rec in ARCHIVE.error_records(node))
    )
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(predicates=st.lists(_predicate, max_size=3))
def test_pruning_never_changes_results(predicates):
    """prune=True == prune=False: zone maps are purely an optimization."""
    plan = _plan(predicates)
    pruned = QueryEngine(MemorySource(ARCHIVE), prune=True).execute(
        plan, use_cache=False
    )
    full = QueryEngine(MemorySource(ARCHIVE), prune=False).execute(
        plan, use_cache=False
    )
    assert pruned.stats.shards_pruned >= 0
    assert full.stats.shards_pruned == 0
    for name in pruned.columns:
        assert np.array_equal(
            pruned.columns[name], full.columns[name]
        ), name


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


class TestAggregation:
    def test_group_by_node_matches_numpy(self, staggered_archive):
        engine = QueryEngine(staggered_archive)
        result = engine.execute(Query(
            filters=(Predicate("kind", "eq", int(KIND_ERROR)),),
            group_by=("node",),
            aggregates=(
                Aggregate("count"),
                Aggregate("sum", column="rep"),
                Aggregate("min", column="t"),
                Aggregate("max", column="t"),
                Aggregate("mean", column="temp"),
            ),
        ))
        assert result.column("node").tolist() == staggered_archive.nodes
        for i, node in enumerate(staggered_archive.nodes):
            cols = staggered_archive.columns(node)
            err = cols.kind == KIND_ERROR
            assert result.column("count")[i] == int(err.sum())
            assert result.column("sum_rep")[i] == cols.rep[err].sum()
            assert result.column("min_t")[i] == cols.t[err].min()
            assert result.column("max_t")[i] == cols.t[err].max()
            expected_mean = cols.temp[err].astype(np.float64).mean()
            got = result.column("mean_temp")[i]
            assert (np.isnan(got) and np.isnan(expected_mean)) or got == expected_mean

    def test_grand_total(self, staggered_archive):
        engine = QueryEngine(staggered_archive)
        result = engine.execute(Query(
            filters=(Predicate("kind", "eq", int(KIND_ERROR)),),
            aggregates=(Aggregate("count"), Aggregate("sum", column="rep")),
        ))
        total_err = sum(
            staggered_archive.columns(n).n_errors for n in staggered_archive.nodes
        )
        assert result.column("count").tolist() == [total_err]
        assert result.column("sum_rep")[0] == sum(
            staggered_archive.columns(n).rep[
                staggered_archive.columns(n).kind == KIND_ERROR
            ].sum()
            for n in staggered_archive.nodes
        )

    def test_grand_total_over_zero_rows(self, staggered_archive):
        engine = QueryEngine(staggered_archive)
        result = engine.execute(Query(
            filters=(Predicate("t", "gt", 1e12),),
            aggregates=(Aggregate("count"), Aggregate("mean", column="t")),
        ))
        assert result.column("count").tolist() == [0]
        assert np.isnan(result.column("mean_t")[0])

    def test_group_counts_match_bincount(self, staggered_archive):
        engine = QueryEngine(staggered_archive)
        result = engine.execute(Query(
            filters=(Predicate("kind", "eq", int(KIND_ERROR)),),
            derive=(Derive("hour", "hour"),),
            group_by=("hour",),
            aggregates=(Aggregate("count"),),
        ))
        hours = np.concatenate([
            (staggered_archive.columns(n).t % 24.0).astype(np.int64) % 24
            for n in staggered_archive.nodes
        ])
        kinds = np.concatenate([
            staggered_archive.columns(n).kind for n in staggered_archive.nodes
        ])
        reference = np.bincount(hours[kinds == KIND_ERROR], minlength=24)
        dense = np.zeros(24, dtype=np.int64)
        dense[result.column("hour")] = result.column("count")
        assert np.array_equal(dense, reference)

    def test_temp_bin_matches_np_histogram(self, staggered_archive):
        edges = np.arange(30.0, 62.5, 2.5)  # deliberately partial range
        engine = QueryEngine(staggered_archive)
        result = engine.execute(Query(
            filters=(
                Predicate("kind", "eq", int(KIND_ERROR)),
                Predicate("temp_bin", "ge", 0),
            ),
            derive=(Derive("temp_bin", "temp_bin", {"edges": edges}),),
            group_by=("temp_bin",),
            aggregates=(Aggregate("count"),),
        ))
        temps = np.concatenate([
            staggered_archive.columns(n).temp[
                staggered_archive.columns(n).kind == KIND_ERROR
            ]
            for n in staggered_archive.nodes
        ]).astype(np.float32).astype(np.float64)
        reference, _ = np.histogram(temps[~np.isnan(temps)], bins=edges)
        dense = np.zeros(edges.shape[0] - 1, dtype=np.int64)
        dense[result.column("temp_bin")] = result.column("count")
        assert np.array_equal(dense, reference)

    def test_bad_temp_bin_edges(self, staggered_archive):
        engine = QueryEngine(staggered_archive)
        for edges in ([40.0], [40.0, 30.0]):
            with pytest.raises(QueryPlanError):
                engine.execute(Query(
                    derive=(Derive("temp_bin", "temp_bin", {"edges": edges}),),
                    project=("temp_bin",),
                ), use_cache=False)


# ---------------------------------------------------------------------------
# Ordering and limits
# ---------------------------------------------------------------------------


class TestOrderLimit:
    def test_order_by_descending_with_limit(self, staggered_archive):
        engine = QueryEngine(staggered_archive)
        result = engine.execute(Query(
            filters=(Predicate("kind", "eq", int(KIND_ERROR)),),
            project=("node", "t"),
            order_by=("-t",),
            limit=7,
        ))
        all_t = np.concatenate([
            staggered_archive.columns(n).t[
                staggered_archive.columns(n).kind == KIND_ERROR
            ]
            for n in staggered_archive.nodes
        ])
        expected = np.sort(all_t)[::-1][:7]
        assert np.array_equal(result.column("t"), expected)

    def test_aggregate_default_order_is_group_keys(self, staggered_archive):
        engine = QueryEngine(staggered_archive)
        result = engine.execute(Query(
            group_by=("node",), aggregates=(Aggregate("count"),)
        ))
        assert result.column("node").tolist() == sorted(result.column("node").tolist())

    def test_limit_zero(self, staggered_archive):
        engine = QueryEngine(staggered_archive)
        result = engine.execute(Query(project=("t",), limit=0))
        assert result.n_rows == 0


# ---------------------------------------------------------------------------
# Pruning and I/O accounting
# ---------------------------------------------------------------------------


class TestPruningIo:
    def test_time_range_reads_only_matching_shards(self, staggered_dir):
        """A window covering 2 of 10 nodes reads exactly 2 shard files."""
        source = ArchiveSource(staggered_dir)
        engine = QueryEngine(source)
        result = engine.execute(Query(
            filters=(
                Predicate("t", "ge", 2 * WINDOW_HOURS),
                Predicate("t", "lt", 4 * WINDOW_HOURS),
            ),
            project=("node", "t"),
        ), use_cache=False)
        assert source.io.shards_read == 2
        assert result.stats.shards_pruned == 8
        assert result.stats.shards_scanned == 2
        assert set(result.column("node")) == {"00-02", "00-03"}

        full_source = ArchiveSource(staggered_dir)
        full = QueryEngine(full_source, prune=False).execute(Query(
            filters=(
                Predicate("t", "ge", 2 * WINDOW_HOURS),
                Predicate("t", "lt", 4 * WINDOW_HOURS),
            ),
            project=("node", "t"),
        ), use_cache=False)
        assert full_source.io.shards_read == 10
        assert np.array_equal(full.column("t"), result.column("t"))

    def test_node_predicate_reads_one_shard(self, staggered_dir):
        source = ArchiveSource(staggered_dir)
        engine = QueryEngine(source)
        engine.execute(Query(
            filters=(Predicate("node", "eq", "00-04"),),
            aggregates=(Aggregate("count"),),
        ), use_cache=False)
        assert source.io.shards_read == 1

    def test_column_pruning_decodes_only_needed_columns(self, staggered_dir):
        source = ArchiveSource(staggered_dir)
        QueryEngine(source).execute(Query(
            filters=(Predicate("kind", "eq", int(KIND_ERROR)),),
            group_by=("node",),
            aggregates=(Aggregate("count"),),
        ), use_cache=False)
        # Only `kind` is decoded per shard; `node` is synthesized.
        assert source.io.columns_read == source.io.shards_read == 10

    def test_v1_archive_prunes_nothing_but_answers_correctly(
        self, staggered_dir, tmp_path
    ):
        import json
        import shutil

        v1 = tmp_path / "v1"
        shutil.copytree(staggered_dir, v1)
        manifest = json.loads((v1 / "manifest.json").read_text())
        manifest["format_version"] = 1
        for entry in manifest["shards"]:
            entry.pop("zone_map")
        (v1 / "manifest.json").write_text(json.dumps(manifest))

        plan = Query(
            filters=(Predicate("t", "lt", WINDOW_HOURS),),
            aggregates=(Aggregate("count"),),
        )
        old = QueryEngine(ArchiveSource(v1)).execute(plan, use_cache=False)
        new = QueryEngine(ArchiveSource(staggered_dir)).execute(
            plan, use_cache=False
        )
        assert old.stats.shards_pruned == 0
        assert new.stats.shards_pruned == 9
        assert old.column("count")[0] == new.column("count")[0]

    def test_empty_shard_always_pruned(self):
        archive = ColumnarArchive(
            {"00-00": RecordColumns.empty()}
        )
        result = QueryEngine(archive).execute(
            Query(project=("t",)), use_cache=False
        )
        assert result.n_rows == 0
        assert result.stats.shards_pruned == 1

    def test_nodes_clause_restricts_scan(self, staggered_archive):
        engine = QueryEngine(staggered_archive)
        result = engine.execute(Query(
            project=("node", "t"), nodes=("00-01",)
        ), use_cache=False)
        assert result.stats.shards_total == 1
        assert set(result.column("node")) == {"00-01"}


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------


class TestCache:
    PLAN = Query(
        filters=(Predicate("kind", "eq", int(KIND_ERROR)),),
        group_by=("node",),
        aggregates=(Aggregate("count"),),
    )

    def test_warm_hit_touches_no_shards(self, staggered_dir):
        source = ArchiveSource(staggered_dir)
        engine = QueryEngine(source)
        cold = engine.execute(self.PLAN)
        io_after_cold = source.io.shards_read
        warm = engine.execute(self.PLAN)
        assert not cold.stats.cache_hit
        assert warm.stats.cache_hit
        assert source.io.shards_read == io_after_cold
        assert warm.column("count") is cold.column("count")  # shared, immutable

    def test_results_are_read_only(self, staggered_archive):
        result = QueryEngine(staggered_archive).execute(self.PLAN)
        with pytest.raises(ValueError):
            result.column("count")[0] = 99

    def test_use_cache_false_bypasses(self, staggered_archive):
        engine = QueryEngine(staggered_archive)
        engine.execute(self.PLAN, use_cache=False)
        second = engine.execute(self.PLAN, use_cache=False)
        assert not second.stats.cache_hit
        assert engine.cache.stats.hits == 0

    def test_lru_eviction(self, staggered_archive):
        engine = QueryEngine(staggered_archive, cache=QueryCache(max_entries=1))
        other = Query(group_by=("node",), aggregates=(Aggregate("count"),))
        engine.execute(self.PLAN)
        engine.execute(other)  # evicts PLAN
        assert engine.cache.stats.evictions == 1
        third = engine.execute(self.PLAN)
        assert not third.stats.cache_hit

    def test_different_data_different_key(self):
        a = QueryEngine(make_staggered_archive(n_nodes=2, seed=1))
        b = QueryEngine(make_staggered_archive(n_nodes=2, seed=2))
        assert a.source.fingerprint() != b.source.fingerprint()

    def test_fingerprint_survives_manifest_rewrite(self, staggered_dir, tmp_path):
        """Zone-map backfill must not invalidate cached results."""
        import json
        import shutil

        from repro.logs.columnar import upgrade_archive

        v1 = tmp_path / "v1"
        shutil.copytree(staggered_dir, v1)
        manifest = json.loads((v1 / "manifest.json").read_text())
        manifest["format_version"] = 1
        for entry in manifest["shards"]:
            entry.pop("zone_map")
        (v1 / "manifest.json").write_text(json.dumps(manifest))
        before = ArchiveSource(v1).fingerprint()
        upgrade_archive(v1)
        assert ArchiveSource(v1).fingerprint() == before
        assert before == ArchiveSource(staggered_dir).fingerprint()
