"""Execution backends for embarrassingly-parallel campaign work.

The year-scale campaign decomposes into independent per-node work units
(session track, fault models, record rendering — see
:mod:`repro.faultinjection.campaign`).  This module provides the one
primitive those call sites need: an order-preserving ``map`` over a
selectable backend.

Backends
--------

``serial``
    Plain in-process loop.  The reference implementation; every other
    backend must produce bit-identical results (per-node RNG streams are
    pure functions of ``(seed, key)``, so they do).
``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  Useful when the
    work releases the GIL (NumPy bulk ops) or for I/O-bound maps; never
    changes results.
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor`.  The scaling
    backend for CPU-bound campaign simulation.  Work functions must be
    module-level (picklable); per-process state is set up once through
    the ``initializer`` hook rather than shipped with every task.
``auto``
    Resolves to ``process`` when more than one worker is requested and
    the platform supports it, else ``serial``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from .core.errors import ConfigurationError

#: Backend names accepted by :func:`parallel_map` and ``CampaignConfig``.
BACKENDS = ("auto", "serial", "thread", "process")


def available_workers() -> int:
    """Number of usable CPUs (affinity-aware where the OS exposes it)."""
    try:
        return len(os.sched_getaffinity(0))  # type: ignore[attr-defined]
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker count (``None``/``0`` -> 1, ``-1`` -> all CPUs)."""
    if workers is None or workers == 0:
        return 1
    if workers < 0:
        return available_workers()
    return int(workers)


def resolve_backend(backend: str | None, workers: int) -> str:
    """Resolve ``auto``/``None`` to a concrete backend for ``workers``."""
    backend = backend or "auto"
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; choose from {BACKENDS}"
        )
    if backend != "auto":
        return backend
    return "process" if workers > 1 else "serial"


def _mp_context():
    """Fork where available: cheap worker start and inherited imports."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return multiprocessing.get_context()


#: Seconds between a pool worker's checks that its parent is still alive.
PARENT_POLL_S = 0.2


def _watch_parent(parent_pid: int) -> None:
    while os.getppid() == parent_pid:
        time.sleep(PARENT_POLL_S)
    os._exit(1)


def _init_pool_worker(parent_pid: int, initializer, initargs: tuple) -> None:
    """Pool worker initializer: exit once the parent is gone, then set up.

    A worker whose parent was killed (SIGKILL leaves the pool no chance to
    shut down) is reparented and would otherwise idle forever, holding
    its memory; a daemon thread notices the new parent and exits.
    """
    threading.Thread(
        target=_watch_parent, args=(parent_pid,), name="parent-watch", daemon=True
    ).start()
    if initializer is not None:
        initializer(*initargs)


def _process_pool(
    workers: int, initializer: Callable[..., None] | None, initargs: Sequence[Any]
) -> ProcessPoolExecutor:
    """A process pool whose workers exit when this process dies."""
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=_mp_context(),
        initializer=_init_pool_worker,
        initargs=(os.getpid(), initializer, tuple(initargs)),
    )


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    backend: str = "serial",
    workers: int = 1,
    initializer: Callable[..., None] | None = None,
    initargs: Sequence[Any] = (),
) -> list[Any]:
    """Order-preserving map of ``fn`` over ``items`` on a backend.

    ``initializer(*initargs)`` runs once per worker process (``process``
    backend) or once up front (``serial``/``thread``), letting work
    functions share expensive per-process context through module globals
    instead of pickling it into every task.
    """
    items = list(items)
    workers = resolve_workers(workers)
    backend = resolve_backend(backend, workers)
    if backend == "serial" or not items or workers == 1 and backend != "process":
        if initializer is not None:
            initializer(*initargs)
        return [fn(item) for item in items]

    if backend == "thread":
        if initializer is not None:
            initializer(*initargs)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))

    # process backend
    chunksize = max(1, len(items) // (workers * 4))
    with _process_pool(workers, initializer, initargs) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


# ---------------------------------------------------------------------------
# Supervised map: retries, watchdog timeouts, broken-pool recovery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Per-unit retry budget with exponential backoff.

    ``retries`` counts *extra* attempts beyond the first, so a unit runs
    at most ``retries + 1`` times.  The backoff before attempt ``n + 1``
    is ``backoff_base_s * backoff_factor ** (n - 1)``, capped at
    ``backoff_max_s`` — deterministic (no jitter), since work units are
    pure functions and the supervisor never races itself.
    """

    retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 5.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")

    def delay(self, failed_attempts: int) -> float:
        """Seconds to wait before the attempt after ``failed_attempts``."""
        if failed_attempts < 1:
            return 0.0
        return min(
            self.backoff_base_s * self.backoff_factor ** (failed_attempts - 1),
            self.backoff_max_s,
        )


#: Why a unit permanently failed.
FAILURE_KINDS = ("error", "timeout", "pool")


@dataclass(frozen=True)
class UnitFailure:
    """One work unit that exhausted its retry budget."""

    key: str
    index: int
    attempts: int
    kind: str   # one of FAILURE_KINDS (the *last* attempt's failure mode)
    error: str  # repr of the last exception ("" for timeout/pool deaths)


@dataclass
class SupervisedOutcome:
    """Everything :func:`supervised_map` observed.

    ``values`` is order-preserving with ``None`` holes where a unit
    permanently failed; ``failures`` explains each hole.  The counters
    aggregate over the whole map (retries include re-dispatches after
    worker deaths and watchdog kills).
    """

    values: list[Any]
    failures: list[UnitFailure] = field(default_factory=list)
    n_retries: int = 0
    n_timeouts: int = 0
    n_pool_rebuilds: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def failed_keys(self) -> list[str]:
        return [f.key for f in self.failures]


def _supervised_call(fn, item, key: str, attempt: int, chaos) -> Any:
    """One attempt of one unit, with optional chaos injection.

    Module-level so the process backend can pickle it; the chaos plan
    (a frozen dataclass) ships with every task, keeping injection a pure
    function of ``(plan, key, attempt)`` in whichever process runs it.
    """
    if chaos is not None:
        chaos.apply(key, attempt)
    return fn(item)


class _UnitState:
    """Supervisor-side bookkeeping for one work unit."""

    __slots__ = ("index", "key", "item", "attempts", "done", "failure")

    def __init__(self, index: int, key: str, item: Any):
        self.index = index
        self.key = key
        self.item = item
        self.attempts = 0          # completed (failed) attempts so far
        self.done = False
        self.failure: UnitFailure | None = None


def _drain_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even if workers are hung or already dead.

    ``ProcessPoolExecutor`` has no public per-worker kill, so the
    watchdog terminates the worker processes directly (a documented-
    stable private attribute since 3.7) before the non-blocking
    shutdown; a plain shutdown would block forever behind a wedged
    unit.
    """
    processes = getattr(pool, "_processes", None)
    if processes:
        for proc in list(processes.values()):
            try:
                proc.kill()
            except Exception:  # pragma: no cover - already-dead workers
                pass
    pool.shutdown(wait=True, cancel_futures=True)


def supervised_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    keys: Sequence[str] | None = None,
    backend: str = "serial",
    workers: int = 1,
    initializer: Callable[..., None] | None = None,
    initargs: Sequence[Any] = (),
    retry: RetryPolicy | None = None,
    unit_timeout: float | None = None,
    chaos=None,
    on_unit_result: Callable[[int, str, Any], None] | None = None,
    max_pool_rebuilds: int = 8,
) -> SupervisedOutcome:
    """Fault-tolerant, order-preserving map over the parallel backends.

    The supervised twin of :func:`parallel_map`: each unit gets a retry
    budget with exponential backoff (``retry``), a watchdog timeout
    (``unit_timeout``; enforced on the process backend, where a wedged
    worker can actually be killed), and the process pool is rebuilt on
    :class:`BrokenProcessPool` with only in-flight units re-dispatched.
    Units must be pure functions of their item (true for the per-node
    campaign units: RNG streams are functions of ``(seed, key)``), so a
    retried unit returns a bit-identical value and the map's *result* is
    unchanged by any failure below the budget.

    ``keys`` names units for failure reporting and chaos targeting
    (default ``str(item)``).  ``on_unit_result(index, key, value)`` runs
    in the supervising process as each unit first succeeds — the hook a
    streamed campaign commits its units through.  It is never invoked
    concurrently: the process and serial backends call it from the
    supervisor loop, and the thread backend serializes calls through a
    lock while still firing per completion, so commits stay incremental
    on every backend.  Permanent failures become :class:`UnitFailure` entries
    instead of exceptions; callers decide whether a degraded result is
    acceptable.
    """
    items = list(items)
    keys = [str(item) for item in items] if keys is None else [str(k) for k in keys]
    if len(keys) != len(items):
        raise ConfigurationError("keys must match items one-to-one")
    retry = retry or RetryPolicy(retries=0)
    workers = resolve_workers(workers)
    backend = resolve_backend(backend, workers)
    units = [_UnitState(i, key, item) for i, (key, item) in enumerate(zip(keys, items))]
    outcome = SupervisedOutcome(values=[None] * len(items))

    if backend == "process" and items:
        _supervise_process(
            fn, units, outcome,
            workers=workers,
            initializer=initializer,
            initargs=tuple(initargs),
            retry=retry,
            unit_timeout=unit_timeout,
            chaos=chaos,
            on_unit_result=on_unit_result,
            max_pool_rebuilds=max_pool_rebuilds,
        )
        return outcome

    # Serial/thread backends: retry in place.  A watchdog cannot preempt
    # code sharing the supervisor's process, so ``unit_timeout`` is a
    # process-backend feature; here hangs surface via the caller's own
    # timeout (e.g. the CI-level pytest timeout).
    if initializer is not None:
        initializer(*initargs)
    lock = threading.Lock()  # guards counters + callbacks on the thread backend

    def run_unit(unit: _UnitState) -> None:
        while True:
            try:
                value = _supervised_call(fn, unit.item, unit.key, unit.attempts + 1, chaos)
            except Exception as exc:
                unit.attempts += 1
                if unit.attempts > retry.retries:
                    unit.failure = UnitFailure(
                        key=unit.key, index=unit.index, attempts=unit.attempts,
                        kind="error", error=repr(exc),
                    )
                    return
                with lock:
                    outcome.n_retries += 1
                time.sleep(retry.delay(unit.attempts))
            else:
                unit.done = True
                outcome.values[unit.index] = value
                return

    if backend == "thread" and len(items) > 1:
        # Completion callbacks fire as each unit succeeds (commits stay
        # incremental — a driver crash mid-map loses only the units still
        # running), serialized through the lock so the callback never
        # sees interleaved calls.
        def run_and_report(unit: _UnitState) -> None:
            run_unit(unit)
            if unit.done and on_unit_result is not None:
                with lock:
                    on_unit_result(unit.index, unit.key, outcome.values[unit.index])

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_and_report, units))
    else:
        for unit in units:
            run_unit(unit)
            if unit.done and on_unit_result is not None:
                on_unit_result(unit.index, unit.key, outcome.values[unit.index])

    outcome.failures = [u.failure for u in units if u.failure is not None]
    return outcome


def _supervise_process(
    fn,
    units: list[_UnitState],
    outcome: SupervisedOutcome,
    *,
    workers: int,
    initializer,
    initargs: tuple,
    retry: RetryPolicy,
    unit_timeout: float | None,
    chaos,
    on_unit_result,
    max_pool_rebuilds: int,
) -> None:
    """The process-backend supervisor event loop.

    Tracks in-flight futures with per-unit deadlines; on a unit error it
    schedules a backoff-delayed re-dispatch, on a watchdog expiry or a
    broken pool it kills/rebuilds the pool and re-dispatches only the
    units that were in flight.  Attempt accounting: the timed-out or
    erroring unit is charged an attempt; when the pool breaks, every
    in-flight unit is charged (the culprit is indistinguishable from
    collateral damage, exactly as with a real dead blade).
    """

    def make_pool() -> ProcessPoolExecutor:
        return _process_pool(workers, initializer, initargs)

    pool = make_pool()
    inflight: dict[Future, tuple[_UnitState, float]] = {}
    ready: list[tuple[float, _UnitState]] = [(0.0, u) for u in units]
    # Bound the number of outstanding futures.  With a watchdog, one
    # slot per worker so a unit's deadline clock starts at (roughly) its
    # execution start, not its submission; without one, a deeper window
    # keeps workers fed while still keeping "in flight" — the set charged
    # when the pool breaks — close to what is actually running.
    window = workers if unit_timeout else workers * 4

    def fail(unit: _UnitState, kind: str, error: str = "") -> None:
        unit.failure = UnitFailure(
            key=unit.key, index=unit.index, attempts=unit.attempts,
            kind=kind, error=error,
        )

    def charge(unit: _UnitState, kind: str, error: str = "") -> None:
        """One failed attempt: retry within budget, else permanent failure."""
        unit.attempts += 1
        if unit.attempts > retry.retries:
            fail(unit, kind, error)
        else:
            outcome.n_retries += 1
            ready.append((time.monotonic() + retry.delay(unit.attempts), unit))

    def rebuild_pool(
        casualties: list[_UnitState],
        kind: str,
        innocents: Sequence[_UnitState] = (),
    ) -> None:
        """Tear down and replace the pool; the single rebuild-cap gate.

        ``casualties`` are charged a failed attempt; ``innocents`` (units
        that were in flight but not implicated) are re-queued free of
        charge.  Every rebuild — broken pool or watchdog expiry — counts
        against ``max_pool_rebuilds``; past the cap everything still
        pending fails closed instead of thrashing forever.
        """
        nonlocal pool
        _drain_pool(pool)
        inflight.clear()
        outcome.n_pool_rebuilds += 1
        if outcome.n_pool_rebuilds > max_pool_rebuilds:
            for unit in casualties:
                fail(unit, kind, "pool rebuild limit reached")
            for unit in innocents:
                fail(unit, kind, "pool rebuild limit reached")
            for _, unit in ready:
                fail(unit, kind, "pool rebuild limit reached")
            ready.clear()
        else:
            for unit in casualties:
                charge(unit, kind)
            for unit in innocents:
                ready.append((0.0, unit))
        pool = make_pool()

    try:
        while inflight or ready:
            now = time.monotonic()
            # Dispatch units whose backoff delay has elapsed, up to the
            # window, in (ready time, index) order for determinism.
            ready.sort(key=lambda entry: (entry[0], entry[1].index))
            still_waiting: list[tuple[float, _UnitState]] = []
            broke_at_submit: _UnitState | None = None
            for ready_at, unit in ready:
                if unit.failure is not None:
                    continue
                if (
                    ready_at > now
                    or broke_at_submit is not None
                    or len(inflight) >= window
                ):
                    still_waiting.append((ready_at, unit))
                    continue
                try:
                    future = pool.submit(
                        _supervised_call, fn, unit.item, unit.key,
                        unit.attempts + 1, chaos,
                    )
                except BrokenProcessPool:
                    broke_at_submit = unit
                    continue
                deadline = now + unit_timeout if unit_timeout else float("inf")
                inflight[future] = (unit, deadline)
            ready[:] = still_waiting
            if broke_at_submit is not None:
                casualties = [unit for unit, _ in inflight.values()]
                casualties.append(broke_at_submit)
                rebuild_pool(casualties, "pool")
                continue

            if not inflight:
                if ready:
                    time.sleep(max(0.0, min(t for t, _ in ready) - time.monotonic()))
                continue

            # Wake at the earliest watchdog deadline or pending backoff
            # expiry; units due now but window-blocked wait for the next
            # completion instead (FIRST_COMPLETED), never a spin.
            now = time.monotonic()
            next_deadline = min(deadline for _, deadline in inflight.values())
            future_ready = [t for t, _ in ready if t > now]
            if future_ready:
                next_deadline = min(next_deadline, min(future_ready))
            wait_s = None
            if next_deadline != float("inf"):
                wait_s = max(0.0, next_deadline - now) + 0.01
            done, _ = wait(inflight, timeout=wait_s, return_when=FIRST_COMPLETED)

            broken_units: list[_UnitState] = []
            for future in done:
                unit, _deadline = inflight.pop(future)
                try:
                    value = future.result()
                except BrokenProcessPool:
                    broken_units.append(unit)
                except Exception as exc:
                    charge(unit, "error", repr(exc))
                else:
                    unit.done = True
                    outcome.values[unit.index] = value
                    if on_unit_result is not None:
                        on_unit_result(unit.index, unit.key, value)
            if broken_units:
                # Everything still in flight died with the pool; units
                # waiting in the ready queue never reached a worker and
                # are not charged.
                casualties = [unit for unit, _ in inflight.values()]
                casualties += broken_units
                rebuild_pool(casualties, "pool")
                continue

            # Watchdog: any in-flight unit past its deadline means a
            # wedged worker; the only reliable recovery is to kill the
            # pool.  One pass partitions the in-flight set: futures that
            # completed in the window since ``wait`` returned are
            # harvested first (their results are final even though the
            # pool is about to die — dropping them would leave a silent
            # ``None`` hole with no matching failure), expired units are
            # charged a (timeout) attempt, and innocent still-running
            # units are re-dispatched free of charge.
            now = time.monotonic()
            completed: list[tuple[Future, _UnitState]] = []
            expired: list[_UnitState] = []
            innocents: list[_UnitState] = []
            for future, (unit, deadline) in inflight.items():
                if future.done():
                    completed.append((future, unit))
                elif deadline <= now:
                    expired.append(unit)
                else:
                    innocents.append(unit)
            if expired:
                for future, unit in completed:
                    try:
                        value = future.result()
                    except BrokenProcessPool:
                        charge(unit, "pool")
                    except Exception as exc:
                        charge(unit, "error", repr(exc))
                    else:
                        unit.done = True
                        outcome.values[unit.index] = value
                        if on_unit_result is not None:
                            on_unit_result(unit.index, unit.key, value)
                outcome.n_timeouts += len(expired)
                rebuild_pool(expired, "timeout", innocents=innocents)
    finally:
        _drain_pool(pool)

    outcome.failures = [u.failure for u in units if u.failure is not None]
