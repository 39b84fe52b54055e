"""Temperature field tests."""

import datetime as dt

import numpy as np
import pytest

from repro.cluster.thermal import placement_for
from repro.cluster.topology import NodeId
from repro.core import timeutils as tu
from repro.core.rng import stream
from repro.environment.temperature import ROOM_MAX_C, ROOM_MIN_C, TemperatureModel


def hours_at(month, day, hour, year=2015):
    return tu.datetime_to_hours(dt.datetime(year, month, day, hour))


class TestRoom:
    def test_room_stays_in_hvac_band(self):
        model = TemperatureModel()
        ts = np.linspace(0.0, 425 * 24.0, 50_000)
        room = np.asarray(model.room_temperature(ts))
        assert room.min() >= ROOM_MIN_C
        assert room.max() <= ROOM_MAX_C


class TestNode:
    def test_normal_node_in_30_40_band(self):
        model = TemperatureModel()
        temps = [
            float(model.node_temperature(NodeId(5, 5), hours_at(m, 10, 14)))
            for m in range(2, 13)
        ]
        assert all(28.0 < t < 42.0 for t in temps)

    def test_overheating_node_above_60(self):
        model = TemperatureModel()
        t = float(model.node_temperature(NodeId(5, 12), hours_at(5, 10, 14)))
        assert t > 60.0

    def test_jitter_is_deterministic(self):
        model = TemperatureModel()
        a = model.node_temperature(NodeId(5, 5), 100.0)
        b = model.node_temperature(NodeId(5, 5), 100.0)
        assert a == b

    def test_jitter_differs_across_nodes(self):
        model = TemperatureModel()
        a = float(model.node_temperature(NodeId(5, 5), 100.0))
        b = float(model.node_temperature(NodeId(5, 6), 100.0))
        assert a != b


class TestTelemetryWindow:
    def test_no_reading_before_april(self):
        model = TemperatureModel()
        assert np.isnan(model.reading(NodeId(5, 5), [hours_at(3, 15, 12)])).all()

    def test_reading_from_april(self):
        model = TemperatureModel()
        assert not np.isnan(model.reading(NodeId(5, 5), [hours_at(4, 15, 12)])).any()


def scalar_reading(model: TemperatureModel, node_id: NodeId, t_hours: float):
    """The one-reading-at-a-time path the batched reading replaced."""
    if not model.telemetry_available(t_hours):
        return None
    room = np.asarray(model.room_temperature(t_hours), dtype=np.float64)
    temp = room + placement_for(node_id).offset_c
    quanta = np.round(np.atleast_1d(np.asarray(t_hours, dtype=np.float64)) * 3600.0)
    gen = stream(model.seed, f"temp/{node_id}/{int(quanta.astype(np.int64)[0])}")
    return float(temp + gen.normal(0.0, model.jitter_std_c))


class TestBatchedReading:
    START = tu.TEMPERATURE_LOGGING_START  # 1416.0 h: 1 April 2015

    def times(self) -> np.ndarray:
        rng = np.random.default_rng(5)
        start = self.START
        edges = [
            np.nextafter(start, 0.0),
            start,
            np.nextafter(start, np.inf),
            start + 0.4 / 3600.0,  # rounds to the same second as ``start``
            100.0,
            100.0,  # a repeated instant
            start + 500.0,
            start + 500.0,
        ]
        spread = rng.uniform(start - 300.0, start + 9000.0, size=300)
        return np.concatenate([edges, spread, spread[:40]])

    @pytest.mark.parametrize("node", [(5, 12), (5, 11), (5, 13), (33, 12), (5, 5), (58, 2)])
    def test_matches_scalar_readings(self, node):
        """SoC-12, its neighbour slots and plain slots, bit for bit."""
        model = TemperatureModel(seed=7)
        node_id = NodeId(*node)
        t = self.times()
        got = model.reading(node_id, t)
        want = np.array(
            [
                np.nan if (v := scalar_reading(model, node_id, x)) is None else v
                for x in t.tolist()
            ]
        )
        assert got.dtype == np.float64 and got.shape == t.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        np.testing.assert_array_equal(np.isnan(got), ~model.telemetry_available(t))
        # Logging starts at 1416.0 h exactly: the instant before reads NaN.
        assert self.START == 1416.0
        assert np.isnan(got[0]) and not np.isnan(got[1])

    def test_repeated_instants_read_alike(self):
        model = TemperatureModel()
        t = np.array([self.START + 10.0, self.START + 10.0 + 0.2 / 3600.0])
        a, b = model.reading(NodeId(5, 5), t)
        assert a - b == pytest.approx(
            float(model.room_temperature(t[0]) - model.room_temperature(t[1])), abs=1e-9
        )

    def test_empty_input(self):
        out = TemperatureModel().reading(NodeId(5, 5), np.empty(0))
        assert out.dtype == np.float64 and out.shape == (0,)
