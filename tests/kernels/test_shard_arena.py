"""The mmap shard handoff: arena round-trips and campaign wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.faultinjection.campaign import run_campaign
from repro.faultinjection.config import quick_campaign_config
from repro.logs.columnar import RecordColumns
from repro.parallel import ShardArena, ShardTicket


@pytest.fixture
def arena(tmp_path):
    with ShardArena.create(base_dir=tmp_path) as arena:
        yield arena


def _columns():
    rng = np.random.default_rng(3)
    return {
        "kind": rng.integers(0, 3, 100).astype(np.uint8),
        "t": rng.uniform(0, 100, 100),
        "expected": rng.integers(0, 1 << 32, 100, dtype=np.uint32),
    }


class TestShardArena:
    def test_round_trip(self, arena):
        columns = _columns()
        ticket = arena.spill("01-07", columns, meta={"node_names": ["01-07"]})
        assert isinstance(ticket, ShardTicket)
        assert ticket.token == "01-07"
        assert ticket.n_arrays == 3
        assert ticket.meta == {"node_names": ["01-07"]}
        claimed = arena.claim(ticket)
        assert set(claimed) == set(columns)
        for name, arr in columns.items():
            assert np.array_equal(claimed[name], arr)
            assert claimed[name].dtype == arr.dtype

    def test_claimed_arrays_are_memory_mapped(self, arena):
        """The handoff's point: claims map files, they don't copy rows."""
        ticket = arena.spill("01-08", _columns())
        for arr in arena.claim(ticket).values():
            assert isinstance(arr, np.memmap)

    def test_respill_same_token_replaces(self, arena):
        first = arena.spill("02-01", {"t": np.arange(4, dtype=np.float64)})
        second = arena.spill("02-01", {"t": np.arange(9, dtype=np.float64)})
        assert first.path == second.path
        assert arena.claim(second)["t"].shape == (9,)

    def test_release_removes_spill(self, arena, tmp_path):
        ticket = arena.spill("03-05", _columns())
        arena.release(ticket)
        with pytest.raises(FileNotFoundError):
            arena.claim(ticket)
        arena.release(ticket)  # idempotent

    def test_close_removes_everything(self, tmp_path):
        arena = ShardArena.create(base_dir=tmp_path)
        arena.spill("04-04", _columns())
        arena.close()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("token", ["", "a/b", ".hidden"])
    def test_bad_tokens_rejected(self, arena, token):
        with pytest.raises(ConfigurationError):
            arena.spill(token, _columns())

    def test_ticket_is_small_to_pickle(self, arena):
        import pickle

        big = {"t": np.zeros(200_000, dtype=np.float64)}
        ticket = arena.spill("05-05", big, meta={"node_names": ["05-05"]})
        assert len(pickle.dumps(ticket)) < 1024


class TestRecordColumnsArrays:
    def test_to_from_arrays_round_trip(self):
        rng = np.random.default_rng(11)
        from repro.core.records import ErrorRecord

        records = [
            ErrorRecord(
                timestamp_hours=float(rng.uniform(0, 10)),
                node="09-01",
                virtual_address=int(rng.integers(0, 1 << 20)),
                physical_page=int(rng.integers(0, 1 << 10)),
                expected=0xFFFFFFFF,
                actual=int(rng.integers(0, 1 << 32)),
                temperature_c=None,
            )
            for _ in range(50)
        ]
        cols = RecordColumns.from_records(records)
        rebuilt = RecordColumns.from_arrays(cols.to_arrays(), cols.node_names)
        assert len(rebuilt) == len(cols)
        assert rebuilt.node_names == cols.node_names
        for name in cols.to_arrays():
            assert np.array_equal(
                getattr(rebuilt, name), getattr(cols, name), equal_nan=True
            )


class TestCampaignHandoff:
    def test_streamed_process_campaign_uses_arena(
        self, tmp_path, monkeypatch
    ):
        """The spill path engages and the archive stays bit-identical."""
        claims = []
        original = ShardArena.claim

        def counting_claim(self, ticket):
            claims.append(ticket.token)
            return original(self, ticket)

        monkeypatch.setattr(ShardArena, "claim", counting_claim)
        result = run_campaign(
            quick_campaign_config(),
            stream_to=tmp_path / "streamed",
            backend="process",
            workers=2,
        )
        assert claims, "shard handoff never engaged on a streamed process run"
        serial = run_campaign(quick_campaign_config())
        a, b = result.raw_frame(), serial.raw_frame()
        assert a.node_names == b.node_names
        for name in ("time_hours", "node_code", "expected", "actual",
                     "virtual_address", "physical_page", "repeat_count"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
