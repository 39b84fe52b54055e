"""Live log monitoring tests."""

from pathlib import Path

import numpy as np
import pytest

from repro.core.records import EndRecord, ErrorRecord, StartRecord
from repro.logs.format import format_record
from repro.logs.frame import ErrorFrame
from repro.monitoring import (
    Advice,
    LogFollower,
    OnlineMonitor,
    frame_from_directory,
    monitor_directory,
)
from repro.resilience.prediction import PredictorConfig, SpatioTemporalPredictor

from .logs.record_reference import from_records


def write_lines(path: Path, records):
    with open(path, "a", encoding="ascii") as fh:
        for record in records:
            fh.write(format_record(record) + "\n")


def err(t, node="05-05", va=0x30):
    return ErrorRecord(
        timestamp_hours=float(t),
        node=node,
        virtual_address=va,
        physical_page=0x80,
        expected=0xFFFFFFFF,
        actual=0xFFFFFFFE,
    )


class TestLogFollower:
    def test_reads_new_lines_only(self, tmp_path):
        log = tmp_path / "05-05.log"
        write_lines(log, [err(1.0)])
        follower = LogFollower(tmp_path)
        assert len(follower.poll()) == 1
        assert len(follower.poll()) == 0  # nothing new
        write_lines(log, [err(2.0), err(3.0)])
        assert len(follower.poll()) == 2

    def test_partial_lines_deferred(self, tmp_path):
        log = tmp_path / "05-05.log"
        full = format_record(err(1.0)) + "\n"
        partial = format_record(err(2.0))
        log.write_text(full + partial, encoding="ascii")
        follower = LogFollower(tmp_path)
        assert len(follower.poll()) == 1
        with open(log, "a", encoding="ascii") as fh:
            fh.write("\n")
        assert len(follower.poll()) == 1

    def test_truncation_restarts(self, tmp_path):
        log = tmp_path / "05-05.log"
        write_lines(log, [err(1.0), err(2.0)])
        follower = LogFollower(tmp_path)
        follower.poll()
        log.write_text(format_record(err(9.0)) + "\n", encoding="ascii")
        cols = follower.poll()
        assert cols.t.tolist() == [9.0]

    def test_multiple_files_sorted(self, tmp_path):
        write_lines(tmp_path / "05-05.log", [err(5.0, node="05-05")])
        write_lines(tmp_path / "06-06.log", [err(1.0, node="06-06")])
        cols = LogFollower(tmp_path).poll()
        assert [cols.node_names[code] for code in cols.node_code] == ["06-06", "05-05"]
        assert cols.t.tolist() == [1.0, 5.0]

    def test_offsets_count_bytes(self, tmp_path):
        """CRLF lines: an offset counted in decoded characters would fall
        one byte behind per line and re-read the tail of the last one."""
        log = tmp_path / "05-05.log"
        log.write_bytes(b"".join(format_record(err(t)).encode() + b"\r\n" for t in (1, 2, 3)))
        follower = LogFollower(tmp_path)
        assert follower.poll().t.tolist() == [1.0, 2.0, 3.0]
        with open(log, "ab") as fh:
            fh.write(format_record(err(4.0)).encode() + b"\r\n")
        assert follower.poll().t.tolist() == [4.0]

    def test_non_error_records_pass_through(self, tmp_path):
        write_lines(
            tmp_path / "05-05.log",
            [StartRecord(0.0, "05-05", 3072, None), EndRecord(1.0, "05-05", None)],
        )
        assert len(LogFollower(tmp_path).poll()) == 2


class TestOnlineMonitor:
    def test_burst_raises_advice(self):
        monitor = OnlineMonitor()
        advice = monitor.ingest(from_records([err(1.0 + 0.1 * i, va=i) for i in range(6)]))
        kinds = [a.kind for a in advice]
        assert "quarantine" in kinds
        assert "tighten-checkpoints" in kinds
        assert monitor.state.n_alarms == 1

    def test_sparse_stream_silent(self):
        monitor = OnlineMonitor()
        advice = monitor.ingest(from_records([err(100.0 * i) for i in range(5)]))
        assert advice == []

    def test_alarm_suppresses_rebroadcast(self):
        monitor = OnlineMonitor()
        first = monitor.ingest(from_records([err(1.0 + 0.1 * i, va=i) for i in range(6)]))
        second = monitor.ingest(
            from_records([err(2.0 + 0.1 * i, va=100 + i) for i in range(6)])
        )
        assert first and not second  # still inside the alarm horizon

    def test_state_counts(self):
        monitor = OnlineMonitor()
        monitor.ingest(from_records([err(1.0), err(2.0, node="06-06")]))
        assert monitor.state.n_errors == 2
        assert monitor.state.errors_by_node == {"05-05": 1, "06-06": 1}

    def test_incremental_equals_batch(self, tmp_path):
        """Feeding records in two chunks gives the same alarms as one."""
        records = [err(1.0 + 0.05 * i, va=i) for i in range(12)]
        one = OnlineMonitor()
        batch = one.ingest(from_records(records))
        two = OnlineMonitor()
        split = two.ingest(from_records(records[:5])) + two.ingest(from_records(records[5:]))
        assert [a.node for a in batch] == [a.node for a in split]


def bursty_stream(seed: int = 2016, n_nodes: int = 16, days: int = 90):
    """Time-ordered error records: sparse background plus storms."""
    rng = np.random.default_rng(seed)
    records = []
    for n in range(n_nodes):
        node = f"{n + 1:02d}-03"
        times = list(rng.uniform(0.0, days * 24.0, rng.poisson(days * 0.6)))
        for _ in range(int(rng.integers(0, 8))):
            start = rng.uniform(0.0, days * 24.0)
            gaps = rng.exponential(rng.uniform(0.1, 3.0), int(rng.integers(2, 60)))
            times.extend((start + np.cumsum(gaps)).tolist())
        records.extend(err(t, node=node, va=i) for i, t in enumerate(times))
    records.sort(key=lambda r: r.timestamp_hours)
    return records


class TestPredictorParity:
    """Batch replay and the online monitor raise the same Sec III-I alarms."""

    @pytest.mark.parametrize(
        "config",
        [
            PredictorConfig(),
            PredictorConfig(trigger_count=1, window_hours=2.0, horizon_hours=6.0),
        ],
        ids=["default", "eager"],
    )
    def test_monitor_alarms_equal_predictor_alarms(self, config):
        records = bursty_stream()
        report = SpatioTemporalPredictor(config).run(ErrorFrame.from_records(records))
        replayed = [(a.node, a.time_hours) for a in report.alarms]
        assert len(replayed) > 50

        def alarms(advice):
            return [(a.node, a.time_hours) for a in advice if a.kind == "quarantine"]

        whole = OnlineMonitor(config).ingest(from_records(records))
        chunked = OnlineMonitor(config)
        half = len(records) // 2
        split = chunked.ingest(from_records(records[:half])) + chunked.ingest(
            from_records(records[half:])
        )
        assert alarms(whole) == replayed
        assert alarms(split) == replayed


class TestDirectoryHelpers:
    def test_monitor_directory(self, tmp_path):
        write_lines(
            tmp_path / "05-05.log", [err(1.0 + 0.1 * i, va=i) for i in range(8)]
        )
        advice = list(monitor_directory(tmp_path))
        assert advice
        assert all(isinstance(a, Advice) for a in advice)

    def test_frame_from_directory(self, tmp_path):
        write_lines(tmp_path / "05-05.log", [err(1.0), err(2.0)])
        write_lines(
            tmp_path / "05-05.log", []
        )
        frame = frame_from_directory(tmp_path)
        assert len(frame) == 2
