"""reprolint: repo-specific static analysis for the reproduction's invariants.

The reproduction's headline guarantees — bit-identical campaigns across
backends, crash-safe journals, NaN-correct pruning — rest on coding
conventions that no general-purpose linter knows about:

* RNG must flow from spawned per-node streams, never the global NumPy or
  stdlib generators (determinism);
* simulation code must never read the wall clock (determinism);
* locks and file handles must be lexically scoped (concurrency, resource
  discipline);
* durable writes must fsync before rename (resource discipline);
* hot NumPy kernels must not silently upcast to float64 or fall back to
  Python lists (NumPy hygiene).

This package parses every module under ``src/repro`` into an AST plus a
lightweight symbol/call-graph index (:mod:`repro.lint.index`), runs a
pluggable rule set (:mod:`repro.lint.rules`) and reports findings as
``file:line:col RULE-ID message`` text or JSON.  Pure stdlib — the
linter must run even where NumPy is broken.

Entry points: ``repro lint`` (CLI) or :func:`run_lint`.  Inline
suppressions use ``# repro: noqa[RULE-ID]: reason`` (the reason is
mandatory; see :mod:`repro.lint.suppress`).
"""

from __future__ import annotations

from .cache import default_cache_path
from .config import LintConfig
from .engine import LintResult, run_lint
from .findings import Finding
from .report import render_json, render_sarif, render_text
from .rules import all_rules

__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "all_rules",
    "default_cache_path",
    "render_json",
    "render_sarif",
    "render_text",
    "run_lint",
]
