"""One benchmark process: generates inputs, or sets up and measures.

Started by ``run.py``, never by hand:

    worker.py gen   --workload W --seed N --inputs DIR
    worker.py setup --workload W --seed N --inputs DIR --tmp DIR
    worker.py run   --workload W --seed N --inputs DIR --tmp DIR
                    --seconds T --trace 0|1 --out FILE [--trace-out FILE] [--plant]

``setup`` and ``run`` print ``ready`` once set-up is done; the launcher
times set-up from process start to that line.  ``run`` then repeats the
workload untraced while another repetition fits in ``--seconds``; with
``--trace 1`` it adds one traced repetition.  The result goes to
``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
from pathlib import Path

import numpy as np

from common import GIB, MIB, median, run_reps, timed_rep, warn
from spans import Tracer
from tracepoints import LAYERS, install

WORKLOADS = {
    "paper-verify": "paper_verify",
    "live-serve": "live_serve",
    "scan-ecc": "scan_ecc",
}


def _shared_layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of the layers more than one workload loads."""
    self_s = tracer.by_name(tracer.self_times())
    dur_s = tracer.by_name(tracer.durations())
    counts = tracer.counts
    return {
        "dram.addr_calls": len(self_s.get("dram.addr", [])),
        "dram.addr_self_s": sum(self_s.get("dram.addr", [])),
        "dram.fill_s": sum(dur_s.get("dram.fill", [])),
        "dram.read_s": sum(dur_s.get("dram.read", [])),
        "dram.read_gb": counts.get("dram.read_bytes", 0.0) / GIB,
        "kernels.extract_s": sum(dur_s.get("kernels.extract", [])),
        "kernels.extract_rows": counts.get("kernels.extract_rows", 0.0),
        "kernels.scan_s": sum(dur_s.get("kernels.scan", [])),
        "kernels.scan_gb": counts.get("kernels.scan_bytes", 0.0) / GIB,
        "kernels.scan_hits": counts.get("kernels.scan_hits", 0.0),
        "kernels.ecc_s": sum(dur_s.get("kernels.ecc", [])),
        "kernels.ecc_words": counts.get("kernels.ecc_words", 0.0),
    }


def _measure(module, state, args) -> dict:
    untraced = Tracer(enabled=False)
    outcomes, ref = run_reps(
        lambda index: module.rep(state, untraced, index, args.plant), args.seconds
    )
    wall_ref = median(o.wall_ref for o in outcomes)
    result = {
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "reps": len(outcomes),
        "rep_wall_s": [o.wall_s for o in outcomes],
        "rep_ref_s": [o.ref_s for o in outcomes],
        "metrics": {"wall_ref": wall_ref},
        "layers": {},
    }
    if args.trace:
        attempted = result["attempted"]
        failed = result["failed"]
        extra = module.extra_metrics(outcomes)
        extra["error_rate"] = failed / attempted if attempted else 0.0
        tracer = Tracer(enabled=True)
        install(tracer)
        try:
            traced, _ref = timed_rep(
                lambda index: module.rep(state, tracer, index, args.plant), len(outcomes), ref
            )
        finally:
            tracer.unpatch_all()
        result["attempted"] += traced.attempted
        result["failed"] += traced.failed
        layers = tracer.layer_self_seconds(traced.wall_s, LAYERS)
        if layers["unattributed"] < -1e-3:
            warn(f"spans outside the timed sections: {layers['unattributed']:.4f} s")
        result["layers"] = layers
        metrics = _shared_layer_metrics(tracer)
        metrics.update(module.layer_metrics(traced, tracer))
        metrics.update(extra)
        metrics.update({f"layer.{name}_s": value for name, value in layers.items()})
        metrics["wall_s"] = median(o.wall_s for o in outcomes)
        metrics["trace.wall_s"] = traced.wall_s
        metrics["trace.overhead"] = traced.wall_ref / wall_ref - 1.0
        metrics["trace.spans"] = len(tracer.names)
        result["metrics"].update(metrics)
        if args.trace_out:
            tracer.write_jsonl(args.trace_out)
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("command", choices=("gen", "setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--tmp", type=Path)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--plant", action="store_true")
    args = parser.parse_args(argv)

    module = importlib.import_module(WORKLOADS[args.workload])
    if args.command != "gen":
        # One CPU for the whole process: the workloads are serial, and the
        # live client, server loop and executor threads then hand requests
        # over without cross-CPU wake-ups.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.command == "gen":
        args.inputs.mkdir(parents=True, exist_ok=True)
        module.generate(args.seed, args.inputs)
        return 0

    state = module.setup(args.seed, args.inputs, args.tmp)
    print("ready", flush=True)
    try:
        if args.command == "setup":
            return 0
        result = _measure(module, state, args)
    finally:
        module.teardown(state)
    result["numpy"] = np.__version__
    # paper-verify runs a recorded campaign seed in place of an unrecorded one.
    result["input_seed"] = getattr(state, "campaign_seed", args.seed)
    result["metrics"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MIB
    )
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
