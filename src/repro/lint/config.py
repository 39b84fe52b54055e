"""Lint configuration: which modules get which special treatment.

The defaults encode this repository's layout.  Tests (and future tools)
construct a :class:`LintConfig` with different path sets to lint fixture
trees, so nothing here hard-codes ``src/repro`` as a filesystem
location — only *relative* path suffixes within whatever tree is being
linted.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _default_clock_allowlist() -> tuple[str, ...]:
    # Only operator-facing monitoring legitimately reads the wall
    # clock; simulation, analysis, storage — and, since the resilience
    # rework, the whole serving tier (monotonic/perf_counter only) —
    # must not.
    return ("monitoring.py",)


def _default_hot_paths() -> tuple[str, ...]:
    # The vectorized kernels where a silent float64 upcast or a Python
    # list round-trip costs real throughput (benchmarks gate these).
    return (
        "query/engine.py",
        "query/prune.py",
        "logs/columnar.py",
        "logs/frame.py",
        "logs/ingest.py",
        "kernels/",
        # The campaign's per-node window chain: array code whose results
        # must stay bit-identical to the per-window loops it replaced.
        "scheduler/jobs.py",
        "faultinjection/sessions.py",
        # The prediction package: feature extraction runs per refresh
        # over the whole fleet, and its artifacts must be dtype-stable
        # to stay bit-reproducible.
        "ml/",
    )


def _default_dispatchers() -> tuple[str, ...]:
    return ("supervised_map", "parallel_map")


def _default_entry_points() -> tuple[str, ...]:
    # Campaign drivers: seed provenance is checked from these roots in
    # addition to worker-dispatch targets.
    return (
        "repro.faultinjection.campaign.run_campaign",
        "repro.faultinjection.campaign.run_unit",
    )


def _default_blessed_rng() -> tuple[str, ...]:
    # The one module allowed to construct generators from raw material:
    # everything else must go through its stream()/RngFactory surface.
    return ("repro.core.rng",)


@dataclass(frozen=True)
class LintConfig:
    """Knobs for the rule set.

    ``clock_allowlist`` / ``hot_paths`` match on *suffixes* of the
    linted file's path with ``/`` separators (a trailing ``/`` matches a
    whole directory), so they work for any tree layout.
    """

    #: Module suffixes allowed to read the wall clock (DET003).
    clock_allowlist: tuple[str, ...] = field(
        default_factory=_default_clock_allowlist
    )
    #: Module suffixes held to NumPy-hygiene rules (NPY001/NPY002).
    hot_paths: tuple[str, ...] = field(default_factory=_default_hot_paths)
    #: Function names whose first argument is dispatched to workers
    #: (CON002 call-graph roots).
    worker_dispatchers: tuple[str, ...] = field(
        default_factory=_default_dispatchers
    )
    #: Restrict the run to these rule ids (empty = all registered rules).
    rules: tuple[str, ...] = ()
    #: Additional call-graph roots for seed provenance (DET101): the
    #: campaign drivers, on top of worker-dispatch targets.
    entry_points: tuple[str, ...] = field(default_factory=_default_entry_points)
    #: Dotted module prefixes whose RNG constructions are the sanctioned
    #: source of streams; calls *into* them yield derived seeds and
    #: construction sites *inside* them are exempt from DET101.
    blessed_rng_modules: tuple[str, ...] = field(
        default_factory=_default_blessed_rng
    )
    #: Worker threads for the per-module analysis phase (None = cpu count).
    jobs: int | None = None

    def is_blessed_rng_module(self, module: str) -> bool:
        return any(
            module == m or module.startswith(m + ".")
            for m in self.blessed_rng_modules
        )

    def cache_key(self) -> str:
        """Stable digest of every knob that shapes per-module facts."""
        import hashlib

        parts = repr((
            sorted(self.clock_allowlist), sorted(self.hot_paths),
            sorted(self.worker_dispatchers), sorted(self.rules),
            sorted(self.entry_points), sorted(self.blessed_rng_modules),
        ))
        return hashlib.sha256(parts.encode("utf-8")).hexdigest()[:16]

    def path_matches(self, path: str, suffixes: tuple[str, ...]) -> bool:
        norm = path.replace("\\", "/")
        for suffix in suffixes:
            if suffix.endswith("/"):
                if f"/{suffix}" in f"/{norm}/":
                    return True
            elif norm.endswith(suffix):
                return True
        return False

    def is_clock_allowed(self, path: str) -> bool:
        return self.path_matches(path, self.clock_allowlist)

    def is_hot_path(self, path: str) -> bool:
        return self.path_matches(path, self.hot_paths)
