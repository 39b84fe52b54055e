"""Where the traced run puts its spans: the program's public callables.

Each entry names the attribute the program calls through (a module
global at the import site, or a class attribute for methods), the span
name, and optionally the work counted per call.  A span's layer is the
part of its name before the first dot.  Callables the benchmark calls
itself (``run_campaign``, ``parse_chunk``, ``compare_schemes``, ...) get
their spans at the benchmark's call site instead.
"""

from __future__ import annotations

import importlib

#: Every layer a span can belong to, in report order.  ``harness`` is
#: the benchmark's own code running inside a program call (the scanner's
#: injection hook).
LAYERS = (
    "faultinjection",
    "scheduler",
    "environment",
    "dram",
    "analysis",
    "experiments",
    "resilience",
    "kernels",
    "logs",
    "query",
    "server",
    "scanner",
    "ecc",
    "harness",
)


def _rows(args, kwargs, result):
    return {"kernels.extract_rows": len(args[0])}


def _read_bytes(args, kwargs, result):
    return {"dram.read_bytes": result.nbytes}


def _scan(args, kwargs, result):
    return {"kernels.scan_bytes": args[0].nbytes, "kernels.scan_hits": len(result)}


def _ecc_words(args, kwargs, result):
    return {"kernels.ecc_words": len(args[0])}


#: (module, class or None, attribute, span name, measure or None)
TRACEPOINTS = (
    ("repro.faultinjection.campaign", None, "build_session_track", "faultinjection.sessions", None),
    ("repro.faultinjection.campaign", None, "plan_catalogue", "faultinjection.models", None),
    ("repro.faultinjection.campaign", None, "gen_background", "faultinjection.models", None),
    ("repro.faultinjection.campaign", None, "gen_weak_bit", "faultinjection.models", None),
    ("repro.faultinjection.campaign", None, "gen_stuck_node", "faultinjection.models", None),
    ("repro.faultinjection.campaign", None, "gen_degrading", "faultinjection.models", None),
    ("repro.faultinjection.campaign", None, "resolve_catalogue", "faultinjection.models", None),
    ("repro.scheduler.batch", "BatchScheduler", "node_windows", "scheduler.node_windows", None),
    ("repro.environment.temperature", "TemperatureModel", "reading", "environment.reading", None),
    ("repro.dram.addressing", "AddressMap", "virtual_address", "dram.addr", None),
    ("repro.dram.addressing", "AddressMap", "physical_page", "dram.addr", None),
    ("repro.dram.device", "SimulatedDram", "fill", "dram.fill", None),
    ("repro.dram.device", "SimulatedDram", "read_block", "dram.read", _read_bytes),
    ("repro.analysis.extraction", None, "collapse_runs", "kernels.extract", _rows),
    ("repro.experiments.verify", None, "table2", "resilience.table2", None),
    ("repro.scanner.tool", "MemoryScanner", "run", "scanner.run", None),
    ("repro.scanner.tool", None, "verify_words", "kernels.scan", _scan),
    ("repro.kernels.ecc", None, "secded_classify", "kernels.ecc", _ecc_words),
    ("repro.kernels.ecc", None, "chipkill_classify", "kernels.ecc", _ecc_words),
    ("repro.query.engine", "QueryEngine", "execute", "query.execute", None),
    ("repro.query.engine", "QueryResult", "to_dict", "query.encode", None),
    ("repro.query.source", "ArchiveSource", "load_columns", "query.source", None),
)


def install(tracer) -> None:
    """Patch every trace point; ``tracer.unpatch_all()`` undoes it."""
    for module_name, class_name, attr, span, measure in TRACEPOINTS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        tracer.patch(owner, attr, span, measure)
