"""Deterministic chaos harness for the fault-tolerant execution layer.

The paper's 13-month collection survived dead blades, node reboots and
partial data; our execution layer has to be validated against the same
adversities without flaky tests.  This module provides *seeded,
reproducible* failure injection: a :class:`ChaosPlan` is a pure function
of ``(seed, unit key, attempt)`` — the same discipline the per-node RNG
streams follow — so every chaos test replays bit-identically.

Fault kinds
-----------

``raise``
    The work unit raises :class:`~repro.core.errors.ChaosError` before
    doing any work (a crashed unit; side-effect-free, so a retry is safe).
``kill``
    The worker *process* dies with ``SIGKILL`` mid-unit — the executor
    sees :class:`~concurrent.futures.process.BrokenProcessPool`.  Only
    meaningful on the process backend; firing it in the driver process
    would kill the driver (which is exactly what the driver-kill resume
    tests do, from a sacrificial subprocess).
``hang``
    The unit sleeps far past any reasonable watchdog timeout, simulating
    a wedged node.  Recoverable only where the supervisor can kill the
    worker (process backend).

Torn writes are not per-unit faults; :func:`tear_file` truncates a file
mid-record the way a power loss would, for crash-recovery tests.

Network/IO faults
-----------------

The telemetry serving tier faces a different adversary: the *storage*
underneath a live query misbehaves while clients keep arriving.
:class:`IoFaultRule` / :class:`IoChaosPlan` extend the same seeded,
``(key, attempt)``-pure discipline to shard reads, and
:class:`ChaosSource` wraps any query source (the duck-typed
``fingerprint``/``shards``/``load_columns`` protocol) to inject them:

``slow_read``
    The read completes, but only after ``delay_s`` — a saturated disk or
    a remote shard on a congested link.
``reset``
    The read dies with :class:`ConnectionResetError` — a storage backend
    dropping the connection mid-transfer.  Transient: a retry may pass.
``torn_read``
    The read raises :class:`~repro.core.errors.ShardCorruptError` — a
    half-written segment observed mid-compaction, or real corruption.
``wedge``
    The read blocks for ``wedge_seconds`` — a wedged storage worker.
    Long enough to trip hedges/timeouts, bounded so tests always drain.

Attempts are counted *per key* by the :class:`ChaosSource`, so a rule
with ``attempts=(1,)`` models a transient fault (the retry or the hedge
read succeeds) and ``attempts=None`` a persistent one.

Plans are frozen dataclasses: picklable, hashable, and safe to ship to
worker processes through the pool initializer or per-task arguments.
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .core.errors import ChaosError, ShardCorruptError

#: Fault kinds a :class:`FaultRule` may inject.
FAULT_KINDS = ("raise", "kill", "hang")

#: Fault kinds an :class:`IoFaultRule` may inject on shard reads.
IO_FAULT_KINDS = ("slow_read", "reset", "torn_read", "wedge")


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: *which* units fail, *when*, and *how*.

    ``key`` selects the unit (``None`` matches every unit); ``attempts``
    lists the 1-based attempt numbers the rule fires on (``None`` means
    every attempt — a *permanent* fault that must exhaust the retry
    budget).  ``probability`` thins the rule deterministically: whether a
    given ``(key, attempt)`` fires is decided by a hash of the plan seed,
    never by wall-clock randomness.
    """

    kind: str
    key: str | None = None
    attempts: tuple[int, ...] | None = (1,)
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; use {FAULT_KINDS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    def matches(self, key: str, attempt: int, seed: int) -> bool:
        if self.key is not None and self.key != key:
            return False
        if self.attempts is not None and attempt not in self.attempts:
            return False
        if self.probability >= 1.0:
            return True
        return _unit_uniform(seed, key, attempt, self.kind) < self.probability


def _unit_uniform(seed: int, key: str, attempt: int, salt: str) -> float:
    """Deterministic uniform draw in [0, 1) for one (key, attempt)."""
    blob = f"{seed}:{key}:{attempt}:{salt}".encode()
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "little") / 2**64


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded set of :class:`FaultRule` injections.

    ``decide`` is pure — repeated supervisors, resumed campaigns and
    worker processes all see the same faults for the same plan.
    ``hang_seconds`` bounds the ``hang`` fault so an *unsupervised* test
    run eventually unwedges instead of stalling CI forever.
    """

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0
    hang_seconds: float = 300.0

    def decide(self, key: str, attempt: int) -> FaultRule | None:
        """The first rule firing for this ``(key, attempt)``, if any."""
        for rule in self.rules:
            if rule.matches(key, attempt, self.seed):
                return rule
        return None

    def apply(self, key: str, attempt: int) -> None:
        """Inject the decided fault (no-op when no rule fires)."""
        rule = self.decide(key, attempt)
        if rule is None:
            return
        if rule.kind == "raise":
            raise ChaosError(
                f"injected failure on unit {key!r} (attempt {attempt})"
            )
        if rule.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if rule.kind == "hang":  # pragma: no cover - killed by the watchdog
            time.sleep(self.hang_seconds)


def raise_on(key: str, n_failures: int = 1, seed: int = 0) -> ChaosPlan:
    """A plan whose unit ``key`` raises on its first ``n_failures`` attempts."""
    return ChaosPlan(
        rules=(FaultRule("raise", key=key, attempts=tuple(range(1, n_failures + 1))),),
        seed=seed,
    )


def always_raise(key: str, seed: int = 0) -> ChaosPlan:
    """A plan whose unit ``key`` fails permanently (exhausts any budget)."""
    return ChaosPlan(rules=(FaultRule("raise", key=key, attempts=None),), seed=seed)


def kill_worker_on(key: str, attempts: tuple[int, ...] = (1,), seed: int = 0) -> ChaosPlan:
    """A plan SIGKILLing the worker running ``key`` on the given attempts."""
    return ChaosPlan(rules=(FaultRule("kill", key=key, attempts=attempts),), seed=seed)


def hang_on(
    key: str,
    attempts: tuple[int, ...] = (1,),
    hang_seconds: float = 300.0,
    seed: int = 0,
) -> ChaosPlan:
    """A plan wedging the unit ``key`` on the given attempts."""
    return ChaosPlan(
        rules=(FaultRule("hang", key=key, attempts=attempts),),
        seed=seed,
        hang_seconds=hang_seconds,
    )


# ---------------------------------------------------------------------------
# Network/IO fault injection (the serving tier's chaos battery)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IoFaultRule:
    """One shard-read injection rule, mirroring :class:`FaultRule`.

    ``key`` selects the node being read (``None`` matches every node);
    ``attempts`` lists the 1-based *per-node read attempt* numbers the
    rule fires on (``None`` = every attempt, a persistent fault).
    ``probability`` thins the rule deterministically from the plan seed.
    ``delay_s`` is the stall injected by ``slow_read``.
    """

    kind: str
    key: str | None = None
    attempts: tuple[int, ...] | None = (1,)
    probability: float = 1.0
    delay_s: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in IO_FAULT_KINDS:
            raise ValueError(
                f"unknown IO fault kind {self.kind!r}; use {IO_FAULT_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.delay_s < 0.0:
            raise ValueError("delay_s must be >= 0")

    def matches(self, key: str, attempt: int, seed: int) -> bool:
        if self.key is not None and self.key != key:
            return False
        if self.attempts is not None and attempt not in self.attempts:
            return False
        if self.probability >= 1.0:
            return True
        return _unit_uniform(seed, key, attempt, self.kind) < self.probability


@dataclass(frozen=True)
class IoChaosPlan:
    """A seeded set of :class:`IoFaultRule` injections for shard reads.

    ``decide`` is a pure function of ``(seed, node, attempt)``, so a
    chaos battery replays bit-identically no matter how server threads
    interleave: each node's fault schedule depends only on how many
    times *that node* has been read.  ``wedge_seconds`` bounds the
    ``wedge`` fault so an unsupervised run always drains.
    """

    rules: tuple[IoFaultRule, ...] = ()
    seed: int = 0
    wedge_seconds: float = 30.0

    def decide(self, key: str, attempt: int) -> IoFaultRule | None:
        """The first rule firing for this ``(node, attempt)``, if any."""
        for rule in self.rules:
            if rule.matches(key, attempt, self.seed):
                return rule
        return None


class ChaosSource:
    """A query source whose shard reads fail on schedule.

    Wraps anything exposing the source protocol (``fingerprint`` /
    ``shards`` / ``load_columns``) and applies an :class:`IoChaosPlan`
    to every ``load_columns`` call.  Read attempts are counted per node
    under a lock, so concurrent server threads see a deterministic
    per-node fault schedule regardless of interleaving.

    ``sleep`` is injectable so unit tests can observe stalls without
    waiting them out.
    """

    def __init__(self, inner, plan: IoChaosPlan, *, sleep=time.sleep):
        self._inner = inner
        self.plan = plan
        self._sleep = sleep
        self._attempts: dict[str, int] = {}
        self._lock = threading.Lock()
        self.faults_injected = 0

    @property
    def io(self):
        return self._inner.io

    def __getattr__(self, name):
        # Pass through source extras (``manifest``, ...) untouched.
        return getattr(self._inner, name)

    def fingerprint(self) -> str:
        return self._inner.fingerprint()

    def shards(self):
        return self._inner.shards()

    def attempts(self, node: str) -> int:
        """How many reads this node has seen (for test assertions)."""
        with self._lock:
            return self._attempts.get(node, 0)

    def load_columns(self, node: str, names):
        with self._lock:
            attempt = self._attempts.get(node, 0) + 1
            self._attempts[node] = attempt
        rule = self.plan.decide(node, attempt)
        if rule is not None:
            self._apply(rule, node, attempt)
        return self._inner.load_columns(node, names)

    def _apply(self, rule: IoFaultRule, node: str, attempt: int) -> None:
        with self._lock:
            self.faults_injected += 1
        if rule.kind == "slow_read":
            self._sleep(rule.delay_s)
        elif rule.kind == "reset":
            raise ConnectionResetError(
                f"injected connection reset reading {node!r} "
                f"(attempt {attempt})"
            )
        elif rule.kind == "torn_read":
            raise ShardCorruptError(
                f"injected torn read on {node!r} (attempt {attempt})",
                node=node,
            )
        elif rule.kind == "wedge":
            self._sleep(self.plan.wedge_seconds)


def slow_reads(delay_s: float, probability: float = 1.0, seed: int = 0) -> IoChaosPlan:
    """A plan stalling every (or a thinned subset of) shard read."""
    return IoChaosPlan(
        rules=(
            IoFaultRule(
                "slow_read", attempts=None, probability=probability, delay_s=delay_s
            ),
        ),
        seed=seed,
    )


def reset_reads_on(
    key: str | None, attempts: tuple[int, ...] | None = (1,), seed: int = 0
) -> IoChaosPlan:
    """A plan resetting reads of node ``key`` on the given attempts."""
    return IoChaosPlan(rules=(IoFaultRule("reset", key=key, attempts=attempts),), seed=seed)


def torn_read_on(
    key: str | None, attempts: tuple[int, ...] | None = (1,), seed: int = 0
) -> IoChaosPlan:
    """A plan tearing reads of node ``key`` on the given attempts."""
    return IoChaosPlan(
        rules=(IoFaultRule("torn_read", key=key, attempts=attempts),), seed=seed
    )


def wedge_reads_on(
    key: str | None,
    attempts: tuple[int, ...] | None = (1,),
    wedge_seconds: float = 30.0,
    seed: int = 0,
) -> IoChaosPlan:
    """A plan wedging reads of node ``key`` on the given attempts."""
    return IoChaosPlan(
        rules=(IoFaultRule("wedge", key=key, attempts=attempts),),
        seed=seed,
        wedge_seconds=wedge_seconds,
    )


def tear_file(path: str | Path, drop_bytes: int) -> int:
    """Truncate the last ``drop_bytes`` bytes of ``path`` (a torn write).

    Returns the new size.  Mimics a crash mid-append: the file ends
    inside a record, which checksummed framing (the columnar
    manifest-last protocol) must detect and discard.
    """
    path = Path(path)
    size = path.stat().st_size
    new_size = max(0, size - int(drop_bytes))
    with open(path, "r+b") as fh:
        fh.truncate(new_size)
        fh.flush()
        os.fsync(fh.fileno())
    return new_size
