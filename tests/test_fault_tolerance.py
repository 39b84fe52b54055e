"""Fault-tolerant execution layer: chaos-harness test suites.

The contract under test (docs/ROBUSTNESS.md): any failure the retry
budget absorbs — crashed units, killed workers, wedged workers, a killed
driver resumed from its stream directory, a node lost and then resumed —
leaves the campaign's results *bit-identical* to an undisturbed serial
run.  Above the budget the campaign degrades (dead-blade accounting)
instead of raising.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import chaos
from repro.cache import CampaignCache, FileLock, config_digest
from repro.core.errors import (
    ChaosError,
    CheckpointError,
    ColumnarFormatError,
    ConfigurationError,
    ShardCorruptError,
    SimulationError,
)
from repro.faultinjection import DegradedResult, run_campaign
from repro.faultinjection.config import quick_campaign_config
from repro.logs.columnar import read_manifest
from repro.logs.format import format_record
from repro.logs.ingest import LiveArchive
from repro.parallel import RetryPolicy, UnitFailure, supervised_map

# ---------------------------------------------------------------------------
# helpers (module-level so the fork-based process backend can pickle them)
# ---------------------------------------------------------------------------


def _square(x: int) -> int:
    return x * x


def _slow_square(x: int) -> int:
    time.sleep(0.05)
    return x * x


def _assert_archives_identical(a, b):
    assert a.archive.nodes == b.archive.nodes
    for node in a.archive.nodes:
        lines_a = [format_record(r) for r in a.archive.records(node)]
        lines_b = [format_record(r) for r in b.archive.records(node)]
        assert lines_a == lines_b, f"log divergence on node {node}"


def _assert_tracks_identical(a, b):
    assert a.tracks.keys() == b.tracks.keys()
    for node, track_a in a.tracks.items():
        track_b = b.tracks[node]
        assert np.array_equal(track_a.starts, track_b.starts)
        assert np.array_equal(track_a.ends, track_b.ends)


def _committed_units(stream: Path) -> set[str]:
    """The ``unit:<node>`` batches a stream directory's ledger holds."""
    try:
        batches = read_manifest(stream).get("batches") or []
    except ColumnarFormatError:
        return set()
    return {batch for batch in batches if batch.startswith("unit:")}


FAST_RETRY = RetryPolicy(retries=2, backoff_base_s=0.0)


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(
            retries=5, backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.5
        )
        delays = [policy.delay(n) for n in range(1, 6)]
        assert delays == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.4),
            pytest.approx(0.5),  # capped
            pytest.approx(0.5),
        ]
        assert sorted(delays) == delays  # monotone non-decreasing
        assert policy.delay(0) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base_s=-0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)


# ---------------------------------------------------------------------------
# Deterministic chaos plans
# ---------------------------------------------------------------------------


class TestChaosPlan:
    def test_decide_is_pure(self):
        plan = chaos.ChaosPlan(
            rules=(chaos.FaultRule("raise", probability=0.5),), seed=42
        )
        first = [plan.decide(f"n{i}", 1) is not None for i in range(50)]
        second = [plan.decide(f"n{i}", 1) is not None for i in range(50)]
        assert first == second
        assert any(first) and not all(first)  # the thinning actually thins

    def test_seed_changes_the_draw(self):
        hit = lambda seed: [
            chaos.ChaosPlan(
                rules=(chaos.FaultRule("raise", probability=0.5),), seed=seed
            ).decide(f"n{i}", 1)
            is not None
            for i in range(50)
        ]
        assert hit(1) != hit(2)

    def test_raise_on_fires_only_on_budgeted_attempts(self):
        plan = chaos.raise_on("node-a", n_failures=2)
        with pytest.raises(ChaosError):
            plan.apply("node-a", 1)
        with pytest.raises(ChaosError):
            plan.apply("node-a", 2)
        plan.apply("node-a", 3)  # third attempt clean
        plan.apply("node-b", 1)  # other units untouched

    def test_always_raise_never_clears(self):
        plan = chaos.always_raise("node-a")
        for attempt in (1, 2, 10):
            with pytest.raises(ChaosError):
                plan.apply("node-a", attempt)

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            chaos.FaultRule("explode")
        with pytest.raises(ValueError):
            chaos.FaultRule("raise", probability=1.5)

    def test_tear_file_truncates_and_floors_at_zero(self, tmp_path):
        victim = tmp_path / "shard.npz"
        victim.write_bytes(b"x" * 100)
        assert chaos.tear_file(victim, 30) == 70
        assert victim.stat().st_size == 70
        assert chaos.tear_file(victim, 1000) == 0


# ---------------------------------------------------------------------------
# supervised_map: serial backend
# ---------------------------------------------------------------------------


class TestSupervisedMapSerial:
    def test_plain_map_matches_parallel_map(self):
        outcome = supervised_map(_square, range(10), backend="serial")
        assert outcome.ok
        assert outcome.values == [x * x for x in range(10)]
        assert outcome.n_retries == 0

    def test_retry_below_budget_preserves_values(self):
        outcome = supervised_map(
            _square,
            range(10),
            keys=[f"u{i}" for i in range(10)],
            backend="serial",
            retry=FAST_RETRY,
            chaos=chaos.raise_on("u3", n_failures=2),
        )
        assert outcome.ok
        assert outcome.values == [x * x for x in range(10)]
        assert outcome.n_retries == 2

    def test_budget_exhaustion_is_a_failure_not_an_exception(self):
        outcome = supervised_map(
            _square,
            range(5),
            keys=[f"u{i}" for i in range(5)],
            backend="serial",
            retry=RetryPolicy(retries=1, backoff_base_s=0.0),
            chaos=chaos.always_raise("u2"),
        )
        assert not outcome.ok
        assert outcome.failed_keys() == ["u2"]
        (failure,) = outcome.failures
        assert failure.kind == "error"
        assert failure.attempts == 2  # initial + 1 retry
        assert "ChaosError" in failure.error
        assert outcome.values[2] is None
        assert [v for i, v in enumerate(outcome.values) if i != 2] == [
            0, 1, 9, 16,
        ]

    def test_zero_budget_default_fails_on_first_error(self):
        outcome = supervised_map(
            _square,
            range(3),
            keys=["a", "b", "c"],
            backend="serial",
            chaos=chaos.raise_on("b"),
        )
        assert outcome.failed_keys() == ["b"]
        assert outcome.n_retries == 0

    def test_on_unit_result_streams_every_success(self):
        seen: list[tuple[int, str, int]] = []
        outcome = supervised_map(
            _square,
            range(4),
            keys=["a", "b", "c", "d"],
            backend="serial",
            retry=FAST_RETRY,
            chaos=chaos.raise_on("c"),
            on_unit_result=lambda i, k, v: seen.append((i, k, v)),
        )
        assert outcome.ok
        assert seen == [(0, "a", 0), (1, "b", 1), (2, "c", 4), (3, "d", 9)]

    def test_keys_must_match_items(self):
        with pytest.raises(ConfigurationError):
            supervised_map(_square, range(3), keys=["only-one"])

    def test_thread_backend_retries_too(self):
        outcome = supervised_map(
            _square,
            range(8),
            keys=[f"u{i}" for i in range(8)],
            backend="thread",
            workers=2,
            retry=FAST_RETRY,
            chaos=chaos.raise_on("u5", n_failures=2),
        )
        assert outcome.ok
        assert outcome.values == [x * x for x in range(8)]
        assert outcome.n_retries == 2

    def test_thread_backend_journals_incrementally(self):
        # Regression: callbacks used to be deferred until every unit had
        # settled, so a driver crash mid-map lost every checkpoint.  Unit
        # 1 blocks until unit 0's callback fires; if callbacks were still
        # deferred this would dead-wait its full timeout and fail.
        first_done = threading.Event()

        def record(index: int, key: str, value: int) -> None:
            if index == 0:
                first_done.set()

        def fn(item: int) -> int:
            if item == 1:
                assert first_done.wait(timeout=10.0), (
                    "unit 0's callback did not fire while unit 1 was running"
                )
            return item * item

        outcome = supervised_map(
            fn, range(2), backend="thread", workers=2, on_unit_result=record
        )
        assert outcome.ok
        assert outcome.values == [0, 1]


# ---------------------------------------------------------------------------
# supervised_map: process backend (worker deaths, watchdog)
# ---------------------------------------------------------------------------


class TestSupervisedMapProcess:
    def test_retry_below_budget(self):
        outcome = supervised_map(
            _square,
            range(10),
            keys=[f"u{i}" for i in range(10)],
            backend="process",
            workers=2,
            retry=FAST_RETRY,
            chaos=chaos.raise_on("u4", n_failures=2),
        )
        assert outcome.ok
        assert outcome.values == [x * x for x in range(10)]
        assert outcome.n_retries == 2
        assert outcome.n_pool_rebuilds == 0

    def test_killed_worker_rebuilds_pool_and_recovers(self):
        outcome = supervised_map(
            _slow_square,
            range(12),
            keys=[f"u{i}" for i in range(12)],
            backend="process",
            workers=2,
            retry=RetryPolicy(retries=3, backoff_base_s=0.0),
            chaos=chaos.kill_worker_on("u6"),
        )
        assert outcome.ok
        assert outcome.values == [x * x for x in range(12)]
        assert outcome.n_pool_rebuilds >= 1
        # A pool break charges only in-flight units, bounded by the
        # dispatch window (workers * 4), per rebuild — never the whole map.
        assert outcome.n_retries <= 8 * outcome.n_pool_rebuilds

    def test_watchdog_kills_hung_worker_and_retries(self):
        outcome = supervised_map(
            _square,
            range(6),
            keys=[f"u{i}" for i in range(6)],
            backend="process",
            workers=2,
            retry=RetryPolicy(retries=2, backoff_base_s=0.0),
            unit_timeout=1.0,
            chaos=chaos.hang_on("u2", hang_seconds=60.0),
        )
        assert outcome.ok
        assert outcome.values == [x * x for x in range(6)]
        assert outcome.n_timeouts >= 1
        assert outcome.n_pool_rebuilds >= 1

    def test_permanent_hang_degrades_with_timeout_kind(self):
        outcome = supervised_map(
            _square,
            range(4),
            keys=[f"u{i}" for i in range(4)],
            backend="process",
            workers=2,
            unit_timeout=1.0,
            chaos=chaos.hang_on("u1", attempts=(1,), hang_seconds=60.0),
        )
        assert outcome.failed_keys() == ["u1"]
        (failure,) = outcome.failures
        assert failure.kind == "timeout"
        assert outcome.values[1] is None
        assert [v for i, v in enumerate(outcome.values) if i != 1] == [0, 4, 9]

    def test_pool_rebuild_limit_fails_closed(self):
        outcome = supervised_map(
            _square,
            range(4),
            keys=[f"u{i}" for i in range(4)],
            backend="process",
            workers=2,
            retry=RetryPolicy(retries=50, backoff_base_s=0.0),
            chaos=chaos.kill_worker_on("u0", attempts=None),  # kills every attempt
            max_pool_rebuilds=2,
        )
        assert not outcome.ok
        assert "u0" in outcome.failed_keys()
        assert all(f.kind == "pool" for f in outcome.failures)

    def test_supervisor_cost_does_not_grow_with_the_map(self):
        # Regression: every pass used to sort and rescan the whole ready
        # queue, so 20,000 units took about a minute on two workers.
        t0 = time.perf_counter()
        outcome = supervised_map(_square, range(20_000), backend="process", workers=2)
        elapsed = time.perf_counter() - t0
        assert outcome.ok
        assert outcome.values == [x * x for x in range(20_000)]
        assert elapsed < 20.0, f"20,000 no-op units took {elapsed:.1f} s"

    def test_watchdog_rebuilds_respect_the_cap(self):
        # Regression: timeout-driven rebuilds used to bypass
        # max_pool_rebuilds, so a permanently wedged unit with a large
        # retry budget could thrash the pool without bound.
        outcome = supervised_map(
            _square,
            range(4),
            keys=[f"u{i}" for i in range(4)],
            backend="process",
            workers=2,
            retry=RetryPolicy(retries=50, backoff_base_s=0.0),
            unit_timeout=1.0,
            chaos=chaos.hang_on("u1", attempts=None, hang_seconds=60.0),
            max_pool_rebuilds=1,
        )
        assert outcome.failed_keys() == ["u1"]
        (failure,) = outcome.failures
        assert failure.kind == "timeout"
        assert failure.error == "pool rebuild limit reached"
        assert outcome.n_pool_rebuilds == 2  # the cap gate, not the budget
        assert [v for i, v in enumerate(outcome.values) if i != 1] == [0, 4, 9]


# ---------------------------------------------------------------------------
# FileLock
# ---------------------------------------------------------------------------


class TestFileLock:
    def test_exclusive_between_processes(self, tmp_path):
        lock_path = tmp_path / ".lock"
        with FileLock(lock_path):
            probe = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    "import sys; sys.path.insert(0, sys.argv[2])\n"
                    "from repro.cache import FileLock\n"
                    "try:\n"
                    "    FileLock(sys.argv[1], timeout_s=0.2).acquire()\n"
                    "    print('ACQUIRED')\n"
                    "except TimeoutError:\n"
                    "    print('BLOCKED')\n",
                    str(lock_path),
                    str(Path(__file__).resolve().parents[1] / "src"),
                ],
                capture_output=True,
                text=True,
                timeout=30,
            )
            assert probe.stdout.strip() == "BLOCKED"
        # Released: the same probe now succeeds.
        probe = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; sys.path.insert(0, sys.argv[2])\n"
                "from repro.cache import FileLock\n"
                "FileLock(sys.argv[1], timeout_s=5).acquire()\n"
                "print('ACQUIRED')\n",
                str(lock_path),
                str(Path(__file__).resolve().parents[1] / "src"),
            ],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert probe.stdout.strip() == "ACQUIRED"

    def test_concurrent_cache_stores_do_not_tear(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cache = CampaignCache(root=tmp_path / "cache")
        payload = {"blob": list(range(1000))}
        errors: list[Exception] = []

        def hammer(key: str) -> None:
            try:
                for _ in range(10):
                    assert cache.store(key, payload)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(f"key{i % 2}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.load("key0") == payload
        assert cache.load("key1") == payload


# ---------------------------------------------------------------------------
# Campaign-level fault tolerance
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def chaos_checkpoint_campaign(tmp_path_factory, quick_campaign):
    """One supervised run: a node crashing twice, streamed throughout."""
    stream = tmp_path_factory.mktemp("stream")
    victim = sorted(quick_campaign.tracks)[0]
    result = run_campaign(
        quick_campaign.config,
        retry=FAST_RETRY,
        chaos=chaos.raise_on(victim, n_failures=2),
        stream_to=stream,
    )
    return result, stream, victim


class TestCampaignFaultTolerance:
    def test_sub_budget_chaos_is_bit_identical(
        self, quick_campaign, chaos_checkpoint_campaign
    ):
        result, _stream, _victim = chaos_checkpoint_campaign
        assert result.degraded is None
        _assert_archives_identical(quick_campaign, result)
        _assert_tracks_identical(quick_campaign, result)
        assert result.n_observations == quick_campaign.n_observations

    def test_metrics_count_the_recoveries(self, chaos_checkpoint_campaign):
        result, _stream, _victim = chaos_checkpoint_campaign
        assert result.metrics.n_retries == 2
        assert result.metrics.n_degraded == 0
        payload = result.metrics.to_dict()
        assert payload["n_retries"] == 2
        assert payload["n_resumed"] == 0

    def test_journal_holds_every_node(self, quick_campaign, chaos_checkpoint_campaign):
        _result, stream, _victim = chaos_checkpoint_campaign
        assert _committed_units(stream) == {
            f"unit:{name}" for name in quick_campaign.tracks
        }
        ledger = LiveArchive.open(stream).committed_batches
        assert f"campaign:{config_digest(quick_campaign.config)}" in ledger

    def test_resume_replays_the_whole_journal_bit_identically(
        self, quick_campaign, chaos_checkpoint_campaign
    ):
        _result, stream, _victim = chaos_checkpoint_campaign
        resumed = run_campaign(quick_campaign.config, stream_to=stream)
        assert resumed.metrics.n_resumed == len(quick_campaign.tracks)
        assert resumed.metrics.node_seconds == {}  # simulated nothing
        _assert_archives_identical(quick_campaign, resumed)
        _assert_tracks_identical(quick_campaign, resumed)
        assert resumed.n_observations == quick_campaign.n_observations

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_degraded_stream_resumes(self, quick_campaign, tmp_path, backend):
        # A process resume takes the committed units' tracks from the
        # parent's own block pass, not from any worker.
        victim = sorted(quick_campaign.tracks)[0]
        stream = tmp_path / "stream"
        first = run_campaign(
            quick_campaign.config,
            workers=2,
            backend=backend,
            retry=RetryPolicy(retries=0),
            chaos=chaos.always_raise(victim),
            stream_to=stream,
        )
        assert first.degraded.names() == [victim]
        resumed = run_campaign(
            quick_campaign.config, workers=2, backend=backend, stream_to=stream
        )
        n = len(quick_campaign.tracks)
        assert resumed.metrics.n_resumed == n - 1  # exactly one recomputed
        assert set(resumed.metrics.node_seconds) == {victim}
        assert resumed.degraded is None
        _assert_archives_identical(quick_campaign, resumed)
        _assert_tracks_identical(quick_campaign, resumed)
        assert resumed.n_observations == quick_campaign.n_observations

    def test_lost_catalogue_node_defers_the_catalogue_to_the_resume(
        self, quick_campaign, tmp_path
    ):
        """The Table I catalogue is resolved over the whole population, so
        a run that loses a node carrying a catalogue fault must leave it
        uncommitted for the resume to resolve."""
        from repro.faultinjection.campaign import _CampaignContext

        plans = _CampaignContext(quick_campaign.config).plans
        victim = sorted({plan.node for plan in plans} & set(quick_campaign.tracks))[0]
        stream = tmp_path / "stream"
        first = run_campaign(
            quick_campaign.config,
            retry=RetryPolicy(retries=0),
            chaos=chaos.always_raise(victim),
            stream_to=stream,
        )
        assert first.degraded.names() == [victim]
        assert "catalogue" not in LiveArchive.open(stream).committed_batches
        resumed = run_campaign(quick_campaign.config, stream_to=stream)
        assert resumed.metrics.n_resumed == len(quick_campaign.tracks) - 1
        _assert_archives_identical(quick_campaign, resumed)
        _assert_tracks_identical(quick_campaign, resumed)
        assert resumed.n_observations == quick_campaign.n_observations

    def test_above_budget_degrades_instead_of_raising(self, quick_campaign):
        victim = sorted(quick_campaign.tracks)[0]
        result = run_campaign(
            quick_campaign.config,
            retry=RetryPolicy(retries=1, backoff_base_s=0.0),
            chaos=chaos.always_raise(victim),
        )
        degraded = result.degraded
        assert isinstance(degraded, DegradedResult)
        assert degraded.names() == [victim]
        assert degraded.n_planned == len(quick_campaign.tracks)
        assert degraded.n_completed == degraded.n_planned - 1
        assert victim in degraded.summary()
        assert result.metrics.n_degraded == 1
        # The survivors are untouched — the paper's 923-of-945 discipline.
        assert victim not in result.tracks
        survivors = set(quick_campaign.tracks) - {victim}
        assert set(result.tracks) == survivors
        for node in sorted(survivors)[:5]:
            assert [format_record(r) for r in result.archive.records(node)] == [
                format_record(r) for r in quick_campaign.archive.records(node)
            ]

    def test_lost_unit_without_retry_policy_raises(self, node_01_02_raises):
        with pytest.raises(SimulationError, match="01-02"):
            run_campaign(quick_campaign_config())

    def test_resume_against_wrong_config_refuses(self, chaos_checkpoint_campaign):
        _result, stream, _victim = chaos_checkpoint_campaign
        before = LiveArchive.open(stream).manifest
        with pytest.raises(CheckpointError):
            run_campaign(quick_campaign_config(seed=12345), stream_to=stream)
        assert LiveArchive.open(stream).manifest == before


class TestDegradedSummary:
    def test_summary_names_the_rebuild_cap(self):
        degraded = DegradedResult(
            nodes=(
                UnitFailure(
                    key="08-14", index=0, attempts=0, kind="timeout",
                    error="pool rebuild limit reached",
                ),
            ),
            n_planned=923,
        )
        assert "08-14 (timeout after 0 attempts: pool rebuild limit reached)" in (
            degraded.summary()
        )

    def test_summary_without_error_text(self):
        degraded = DegradedResult(
            nodes=(
                UnitFailure(key="08-14", index=0, attempts=1, kind="timeout", error=""),
            ),
            n_planned=923,
        )
        assert degraded.summary() == (
            "degraded campaign: 922 of 923 nodes completed; "
            "lost 08-14 (timeout after 1 attempts)"
        )


class TestDegradedResultsStayOutOfTheCache:
    """Regression: a degraded campaign shares its config digest with a
    healthy run, so persisting (or memoizing) it would serve an
    incomplete node population as a cache hit to every later plain run.
    """

    def _patched_runner(self, monkeypatch, degraded):
        from types import SimpleNamespace

        from repro.experiments import runner

        run = SimpleNamespace(degraded=degraded)
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setattr(runner, "run_campaign", lambda config, **kw: run)
        monkeypatch.setattr(runner, "_cacheable", lambda result: result)
        monkeypatch.setattr(runner, "StudyAnalysis", lambda result: ("analysis", result))
        monkeypatch.setattr(runner, "_ANALYSES", {})
        return runner, run

    def test_degraded_run_is_not_persisted_or_memoized(self, tmp_path, monkeypatch):
        degraded = DegradedResult(
            nodes=(
                UnitFailure(
                    key="01-01", index=0, attempts=3, kind="error", error="boom"
                ),
            ),
            n_planned=4,
        )
        runner, run = self._patched_runner(monkeypatch, degraded)
        cache = CampaignCache(root=tmp_path / "cache")
        analysis = runner.get_analysis(quick=True, cache=cache)
        assert analysis == ("analysis", run)  # the caller still gets it
        assert cache.stats.stores == 0
        assert cache.entries() == []
        assert runner._ANALYSES == {}

    def test_healthy_run_is_still_cached(self, tmp_path, monkeypatch):
        runner, run = self._patched_runner(monkeypatch, degraded=None)
        cache = CampaignCache(root=tmp_path / "cache")
        analysis = runner.get_analysis(quick=True, cache=cache)
        assert analysis == ("analysis", run)
        assert cache.stats.stores == 1
        assert len(cache.entries()) == 1
        assert len(runner._ANALYSES) == 1


def _session_alive(sid: int) -> list[int]:
    """Pids of the live (not zombie) processes in session ``sid``."""
    if not os.path.isdir("/proc"):  # pragma: no cover - non-Linux
        try:
            os.killpg(sid, 0)
        except ProcessLookupError:
            return []
        return [sid]
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp session ...
        fields = stat[stat.rindex(")") + 2 :].split()
        if int(fields[3]) == sid and fields[0] not in ("Z", "X"):
            alive.append(int(entry))
    return alive


_DRIVER_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[3])
from repro.faultinjection import run_campaign
from repro.faultinjection.config import quick_campaign_config
run_campaign(
    quick_campaign_config(int(sys.argv[2])),
    workers=2,
    backend="process",
    stream_to=sys.argv[1],
    stream_flush_nodes=16,
)
"""


@pytest.mark.slow
class TestKillRecovery:
    def test_worker_sigkill_mid_campaign_is_bit_identical(self, quick_campaign):
        victim = sorted(quick_campaign.tracks)[5]
        result = run_campaign(
            quick_campaign.config,
            workers=2,
            backend="process",
            retry=RetryPolicy(retries=8, backoff_base_s=0.0),
            chaos=chaos.kill_worker_on(victim),
        )
        assert result.degraded is None
        assert result.metrics.n_pool_rebuilds >= 1
        _assert_archives_identical(quick_campaign, result)
        _assert_tracks_identical(quick_campaign, result)

    def test_driver_sigkill_then_resume_is_bit_identical(
        self, quick_campaign, tmp_path
    ):
        """SIGKILL the whole driver mid-campaign; its pool workers must exit
        too, and resume must complete the run bit-identically from whatever
        the stream's ledger made durable."""
        stream = tmp_path / "stream"
        src = str(Path(__file__).resolve().parents[1] / "src")
        seed = quick_campaign.config.seed
        # Its own session: every process the driver starts can be found.
        # Its own TMPDIR: anything the killed driver leaves in the system
        # temp directory shows up in tmp_path.
        driver = subprocess.Popen(
            [sys.executable, "-c", _DRIVER_SCRIPT, str(stream), str(seed), src],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
            env={**os.environ, "TMPDIR": str(tmp_path)},
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if _committed_units(stream):
                    break
                if driver.poll() is not None:
                    pytest.fail("driver finished before it could be killed")
                time.sleep(0.02)
            else:
                pytest.fail("no unit batch was ever committed")
            driver.send_signal(signal.SIGKILL)
            driver.wait(timeout=60)
            deadline = time.monotonic() + 20
            while _session_alive(driver.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            survivors = _session_alive(driver.pid)
            assert not survivors, f"processes outlived their killed driver: {survivors}"
        finally:
            for pid in _session_alive(driver.pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            if driver.poll() is None:
                driver.kill()
            driver.wait(timeout=60)

        durable = _committed_units(stream)
        assert durable  # the poll loop guaranteed at least one entry
        assert len(durable) < len(quick_campaign.tracks)  # killed mid-run
        # Units come back through the pipe as arrays: no spill files.
        assert not list(tmp_path.glob("repro-shards-*"))

        resumed = run_campaign(quick_campaign.config, stream_to=stream)
        assert resumed.metrics.n_resumed == len(durable)
        assert resumed.degraded is None
        _assert_archives_identical(quick_campaign, resumed)
        _assert_tracks_identical(quick_campaign, resumed)
        assert resumed.n_observations == quick_campaign.n_observations


# ---------------------------------------------------------------------------
# Degraded columnar loads (ShardCorruptError / skip_corrupt)
# ---------------------------------------------------------------------------


@pytest.fixture()
def tiny_archive(tmp_path):
    from repro.core.records import ErrorRecord
    from repro.logs.columnar import ColumnarArchive, RecordColumns

    nodes = ["00-01", "01-01", "02-01"]
    archive = ColumnarArchive(
        {
            node: RecordColumns.from_records(
                [
                    ErrorRecord(
                        timestamp_hours=1.0 + i,
                        node=node,
                        virtual_address=0x10,
                        physical_page=0x20,
                        expected=0,
                        actual=1 + i,
                        temperature_c=50.0,
                        repeat_count=1,
                    )
                ]
            )
            for i, node in enumerate(nodes)
        }
    )
    directory = tmp_path / "archive"
    archive.save(directory)
    return directory, nodes


class TestDegradedColumnarLoad:
    def test_corrupt_shard_names_its_node(self, tiny_archive):
        from repro.logs.columnar import ColumnarArchive

        directory, nodes = tiny_archive
        shard = directory / f"{nodes[1]}.npz"
        shard.write_bytes(shard.read_bytes()[:-7])
        with pytest.raises(ShardCorruptError) as excinfo:
            ColumnarArchive.load(directory)
        assert excinfo.value.node == nodes[1]

    def test_skip_corrupt_loads_the_survivors(self, tiny_archive):
        from repro.logs.columnar import ColumnarArchive

        directory, nodes = tiny_archive
        shard = directory / f"{nodes[1]}.npz"
        shard.write_bytes(shard.read_bytes()[:-7])
        archive = ColumnarArchive.load(directory, skip_corrupt=True)
        assert archive.nodes == [nodes[0], nodes[2]]
        assert set(archive.skipped_shards) == {nodes[1]}
        assert isinstance(archive.skipped_shards[nodes[1]], ShardCorruptError)
        assert archive.n_errors() == 2

    def test_missing_shard_skips_the_same_way(self, tiny_archive):
        from repro.logs.columnar import ColumnarArchive

        directory, nodes = tiny_archive
        (directory / f"{nodes[0]}.npz").unlink()
        archive = ColumnarArchive.load(directory, skip_corrupt=True)
        assert archive.nodes == nodes[1:]
        assert set(archive.skipped_shards) == {nodes[0]}

    def test_missing_manifest_stays_fatal_even_in_skip_mode(self, tmp_path):
        from repro.core.errors import ColumnarFormatError
        from repro.logs.columnar import ColumnarArchive

        with pytest.raises(ColumnarFormatError):
            ColumnarArchive.load(tmp_path / "nowhere", skip_corrupt=True)

    def test_clean_load_reports_no_skips(self, tiny_archive):
        from repro.logs.columnar import ColumnarArchive

        directory, nodes = tiny_archive
        archive = ColumnarArchive.load(directory)
        assert archive.nodes == nodes
        assert archive.skipped_shards == {}


# ---------------------------------------------------------------------------
# LogFollower: truncation / rotation / disappearance
# ---------------------------------------------------------------------------


def _error_line(t: float, node: str = "00-01", actual: int = 1) -> str:
    from repro.core.records import ErrorRecord

    return format_record(
        ErrorRecord(
            timestamp_hours=t,
            node=node,
            virtual_address=0x10,
            physical_page=0x20,
            expected=0,
            actual=actual,
            temperature_c=50.0,
            repeat_count=1,
        )
    )


class TestLogFollowerRotation:
    def test_incremental_tail(self, tmp_path):
        from repro.monitoring import LogFollower

        log = tmp_path / "00-01.log"
        log.write_text(_error_line(1.0) + "\n")
        follower = LogFollower(tmp_path)
        assert len(follower.poll()) == 1
        assert follower.poll() == []
        with open(log, "a") as fh:
            fh.write(_error_line(2.0) + "\n")
        assert len(follower.poll()) == 1

    def test_partial_lines_wait_for_completion(self, tmp_path):
        from repro.monitoring import LogFollower

        log = tmp_path / "00-01.log"
        full = _error_line(1.0)
        log.write_text(full[:20])  # no newline yet
        follower = LogFollower(tmp_path)
        assert follower.poll() == []
        log.write_text(full + "\n")  # completed in place (same size class)
        assert len(follower.poll()) == 1

    def test_truncation_resets_to_start(self, tmp_path):
        from repro.monitoring import LogFollower

        log = tmp_path / "00-01.log"
        log.write_text((_error_line(1.0) + "\n") * 5)
        follower = LogFollower(tmp_path)
        assert len(follower.poll()) == 5
        log.write_text(_error_line(9.0) + "\n")  # daemon restarted, fresh log
        records = follower.poll()
        assert len(records) == 1
        assert records[0].timestamp_hours == 9.0

    def test_rotation_to_a_larger_file_is_detected_by_inode(self, tmp_path):
        """logrotate-style rename+recreate: the new file is *larger* than
        the consumed offset, so size alone would silently tail garbage."""
        from repro.monitoring import LogFollower

        log = tmp_path / "00-01.log"
        log.write_text(_error_line(1.0) + "\n")
        follower = LogFollower(tmp_path)
        assert len(follower.poll()) == 1
        replacement = tmp_path / "incoming.tmp"
        replacement.write_text("".join(_error_line(2.0 + i) + "\n" for i in range(4)))
        os.replace(replacement, log)  # new inode, bigger than old offset
        records = follower.poll()
        assert len(records) == 4
        assert [r.timestamp_hours for r in records] == [2.0, 3.0, 4.0, 5.0]

    def test_vanished_file_is_skipped_then_reread_from_scratch(self, tmp_path):
        from repro.monitoring import LogFollower

        log = tmp_path / "00-01.log"
        log.write_text(_error_line(1.0) + "\n")
        follower = LogFollower(tmp_path)
        assert len(follower.poll()) == 1
        log.unlink()
        assert follower.poll() == []
        log.write_text(_error_line(2.0) + "\n")
        assert len(follower.poll()) == 1
