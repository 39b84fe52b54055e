"""Timers and spans for the benchmark.

A :class:`Stopwatch` adds up only the timed sections of one repetition,
so checks and input preparation between them never count.  A
:class:`Tracer` records spans (name, start, end, parent) around calls
into the program's public functions.  It wraps those functions at the
attribute the program calls them through (a module global or a class
attribute), keeps every span in memory, and can write them out as JSON
lines once the run is over.  Spans inside ``src/`` are not recorded here.

Spans opened on a thread with no open span of its own (the telemetry
server's event loop and executor threads) take as parent the innermost
span open on the main thread.  The live workload keeps one request in
flight at a time, so that span is the client request being served.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable


class Stopwatch:
    """Sum of the timed sections of one repetition."""

    def __init__(self) -> None:
        self.total = 0.0

    @contextmanager
    def section(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.total += time.perf_counter() - start


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        #: Work counted at span boundaries (rows, bytes, words), by key.
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._ambient = -1
        self._patches: list[tuple[object, str, object]] = []
        self._paused = False

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(stack[-1] if stack else self._ambient)
            self.ends.append(0.0)
            self.starts.append(time.perf_counter())
        stack.append(sid)
        if threading.get_ident() == self._main:
            self._ambient = sid
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if threading.get_ident() == self._main:
            self._ambient = stack[-1] if stack else -1

    @contextmanager
    def span(self, name: str):
        if not self.enabled or self._paused:
            yield
            return
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    @contextmanager
    def paused(self):
        """Record nothing inside: the benchmark's own checks call into
        the program outside the timed sections."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0.0) + amount

    # -- wrapping the program's callables ------------------------------------

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        measure: Callable[[tuple, dict, object], dict[str, float]] | None = None,
    ) -> None:
        """Route ``owner.attr`` through a span named ``name``.

        ``measure(args, kwargs, result)`` may return work counts to add
        under their keys.  :meth:`unpatch_all` restores the original.
        """
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer._paused:
                return original(*args, **kwargs)
            sid = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(sid)
            if measure is not None:
                for key, amount in measure(args, kwargs, result).items():
                    tracer.count(key, amount)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def durations(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its children."""
        durations = self.durations()
        child = [0.0] * len(durations)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[sid]
        return [d - c for d, c in zip(durations, child)]

    def by_name(self, values: list[float]) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for name, value in zip(self.names, values):
            out.setdefault(name, []).append(value)
        return out

    def layer_self_seconds(self, wall_s: float, layers: tuple[str, ...]) -> dict[str, float]:
        """Self time per layer plus ``unattributed``; sums to ``wall_s``.

        A span's layer is the part of its name before the first dot.
        """
        totals = {layer: 0.0 for layer in layers}
        for name, value in zip(self.names, self.self_times()):
            layer = name.split(".", 1)[0]
            if layer not in totals:
                raise ValueError(f"span {name!r} belongs to no known layer")
            totals[layer] += value
        totals["unattributed"] = wall_s - sum(totals.values())
        return totals

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )
