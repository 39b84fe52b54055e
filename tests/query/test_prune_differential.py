"""The vectorized prune and merge against the scalar per-node oracle.

:func:`repro.query.prune.prune_mask` must decide exactly what
:func:`scalar_prune.shard_may_match` decides, node by node, and
:meth:`ZoneTable.merge` must hold exactly what
:func:`scalar_prune.merge_zone_maps` returns — over zone populations
with missing zone maps, empty nodes, all-NaN temperatures, nodes
without ERROR rows and multi-part nodes, for every op on every column,
with values the columns cannot be compared with.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logs.columnar import (
    KIND_ERROR,
    RecordColumns,
    compute_zone_map,
    group_zone_columns,
    zone_maps_of,
)
from repro.query.plan import PREDICATE_OPS, Derive, Predicate
from repro.query.prune import ZoneTable, prune_mask

from .scalar_prune import merge_zone_maps, reference_zone_map, shard_may_match

NODES = ("01-01", "01-02", "01-03", "02-01", "02-07")
T_GRID = (0.0, 1.0, 2.5, 5.0, 10.0)
#: 20.1 is not a float32: ``temp_c`` moves it by less than one ULP.
TEMP_GRID = (18.0, 20.1, 30.0, 45.25)
NUMBERS = (
    -1, 0, 1, 2, 3, 4, 7, 1.5, 2.5, 5.0, 10.0, 11.0, 18.0, 20.1,
    float(np.float32(20.1)), 30.0, 45.25, 95.0, 2**60 + 1, -(2**60),
    math.inf, -math.inf, math.nan, True, False,
)
#: Values no numeric column can be compared with (and names ``node`` can).
INCOMPARABLE = ("x", "", "01-02", "02-07", "zz")
VALUE = st.sampled_from(NUMBERS + INCOMPARABLE)
IN_ITEM = st.one_of(VALUE, st.none())

DERIVES = {
    d.name: d
    for d in (
        Derive("tc", "temp_c"),
        Derive("ht", "has_temp"),
        Derive("nb", "n_bits"),
        Derive("bb", "bit_bucket", {"max_bucket": 2}),
        Derive("bb6", "bit_bucket"),
        Derive("hr", "hour"),
        Derive("dy", "day", {"n_days": 10}),
        Derive("tb", "temp_bin", {"edges": [18.0, 30.0, 95.0]}),
    )
}
#: Zone-mapped columns, derived names, and columns without zones.
COLUMNS = ("t", "kind", "temp", "node") + tuple(DERIVES) + (
    "mb", "va", "pp", "expected", "actual", "rep",
)


@st.composite
def node_columns(draw) -> RecordColumns:
    """0-6 rows of one node: any kinds, gridded t/temp, 0-3 flipped bits."""
    n = draw(st.integers(0, 6))
    kind = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), np.uint8)
    t = np.array(draw(st.lists(st.sampled_from(T_GRID), min_size=n, max_size=n)))
    temp = np.array(
        draw(st.lists(st.sampled_from(TEMP_GRID + (math.nan,)), min_size=n, max_size=n)),
        dtype=np.float64,
    )
    if draw(st.booleans()):
        temp[:] = math.nan
    expected = np.array(
        draw(st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n)), np.uint32
    )
    flips = draw(st.lists(st.sampled_from([0, 1, 3, 0x80000001]), min_size=n, max_size=n))
    actual = expected ^ np.array(flips, dtype=np.uint32)
    zeros = np.zeros(n, dtype=np.int64)
    return RecordColumns(
        kind=kind, t=t.astype(np.float64), temp=temp, mb=zeros, va=zeros,
        pp=zeros, expected=expected, actual=actual, rep=zeros + 1,
        node_code=np.zeros(n, dtype=np.int32), node_names=["n"],
    )


#: A part's zone: usually computed from rows, sometimes missing (v1).
ZONE = st.integers(0, 5).flatmap(
    lambda k: st.none() if k == 0 else node_columns().map(reference_zone_map)
)


@st.composite
def populations(draw) -> dict[str, list[dict | None]]:
    """node -> its parts' zones (1-3 parts, any of them without a zone)."""
    nodes = draw(st.lists(st.sampled_from(NODES), min_size=1, unique=True))
    return {
        node: draw(st.lists(ZONE, min_size=1, max_size=3)) for node in sorted(nodes)
    }


@st.composite
def predicates(draw) -> Predicate:
    column = draw(st.sampled_from(COLUMNS))
    op = draw(st.sampled_from(PREDICATE_OPS))
    if op in ("isnull", "notnull"):
        return Predicate(column, op)
    if op == "in":
        return Predicate(column, op, draw(st.lists(IN_ITEM, min_size=1, max_size=3)))
    return Predicate(column, op, draw(VALUE))


def table_of(population: dict[str, list]) -> ZoneTable:
    """Part k of every node in one table, as one manifest entry would be."""
    depth = max(len(parts) for parts in population.values())
    tables = []
    for k in range(depth):
        nodes = [node for node, parts in population.items() if len(parts) > k]
        tables.append(
            ZoneTable.from_zone_maps(nodes, [population[n][k] for n in nodes])
        )
    return ZoneTable.merge(tables)


def scalar_zone(parts: list) -> dict | None:
    return parts[0] if len(parts) == 1 else merge_zone_maps(parts)


def row_as_zone(table: ZoneTable, i: int) -> dict:
    def span(lo, hi):
        return None if math.isnan(lo[i]) else [float(lo[i]), float(hi[i])]

    return {
        "n_records": int(table.n_records[i]),
        "t": span(table.t_lo, table.t_hi),
        "temp": span(table.temp_lo, table.temp_hi),
        "n_temp": int(table.n_temp[i]),
        "kinds": {str(k): int(c) for k, c in enumerate(table.kinds[i]) if c},
        "bits": (
            [int(table.bits_lo[i]), int(table.bits_hi[i])]
            if table.has_bits[i] else None
        ),
    }


def assert_same_decisions(population: dict, table: ZoneTable, preds: tuple) -> None:
    expected = [
        shard_may_match(scalar_zone(parts), node, preds, DERIVES)
        for node, parts in population.items()
    ]
    assert prune_mask(table, preds, DERIVES).tolist() == expected, preds


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(
        population=populations(),
        value=VALUE,
        items=st.lists(IN_ITEM, min_size=1, max_size=3),
    )
    def test_every_op_on_every_column(self, population, value, items):
        table = table_of(population)
        assert table.nodes == tuple(population)
        for column in COLUMNS:
            for op in PREDICATE_OPS:
                if op in ("isnull", "notnull"):
                    pred = Predicate(column, op)
                else:
                    pred = Predicate(column, op, items if op == "in" else value)
                assert_same_decisions(population, table, (pred,))

    @settings(max_examples=100, deadline=None)
    @given(
        population=populations(),
        preds=st.lists(predicates(), min_size=2, max_size=4),
    )
    def test_conjunctions(self, population, preds):
        assert_same_decisions(population, table_of(population), tuple(preds))

    @settings(max_examples=100, deadline=None)
    @given(population=populations())
    def test_merged_table_equals_merge_zone_maps(self, population):
        table = table_of(population)
        for i, (node, parts) in enumerate(population.items()):
            merged = merge_zone_maps(parts)
            assert bool(table.known[i]) == (merged is not None), node
            assert int(table.n_parts[i]) == len(parts)
            if merged is not None:
                assert row_as_zone(table, i) == merged, node

    @settings(max_examples=100, deadline=None)
    @given(groups=st.lists(node_columns(), max_size=6))
    def test_group_kernel_equals_reference_zone_map(self, groups):
        counts = [len(cols) for cols in groups]
        cols = RecordColumns.concat(groups)
        zones = zone_maps_of(group_zone_columns(cols, counts))
        assert zones == [reference_zone_map(group) for group in groups]
        assert [compute_zone_map(g) for g in groups] == zones


class TestExamples:
    """Cases the differential test must be able to tell apart."""

    ZONE = {
        "n_records": 3, "t": [0.0, 5.0], "temp": [20.1, 20.1], "n_temp": 3,
        "kinds": {"0": 1, str(KIND_ERROR): 2}, "bits": [1, 3],
    }

    def mask(self, pred: Predicate) -> bool:
        table = ZoneTable.from_zone_maps(["01-01"], [self.ZONE])
        return bool(prune_mask(table, (pred,), DERIVES)[0])

    def test_temp_c_widens_by_one_float32_ulp(self):
        pred = Predicate("tc", "eq", float(np.float32(20.1)))
        assert self.mask(pred) is shard_may_match(self.ZONE, "01-01", (pred,), DERIVES)
        assert self.mask(pred) is True
        assert self.mask(Predicate("temp", "eq", float(np.float32(20.1)))) is False

    def test_ne_prunes_only_a_single_valued_range(self):
        assert self.mask(Predicate("t", "ne", 5.0)) is True
        assert self.mask(Predicate("temp", "ne", 20.1)) is False

    def test_incomparable_value_means_maybe(self):
        assert self.mask(Predicate("t", "lt", "x")) is True
        assert self.mask(Predicate("kind", "in", [9, None])) is True
        assert self.mask(Predicate("node", "ge", 3)) is True

    def test_infinite_kind_value_means_maybe(self):
        assert self.mask(Predicate("kind", "eq", math.inf)) is True

    def test_huge_int_compares_exactly(self):
        table = ZoneTable.from_zone_maps(
            ["01-01"], [dict(self.ZONE, t=[2.0**60, 2.0**60])]
        )
        pred = Predicate("t", "eq", 2**60 + 1)
        assert not prune_mask(table, (pred,), DERIVES)[0]
