"""Run one benchmark workload in isolation and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds T] [--trace 0|1]

Run from the root of a checkout.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: every end-to-end metric of ``BENCHMARK.json`` with
``--trace 0``, every per-layer metric with ``--trace 1``.  The lines
before it are a readable report and one ``{"meta": ...}`` line.

Each run gets a fresh temporary directory under ``.perfbench/`` for its
inputs, archives and ``REPRO_CACHE_DIR``; the campaign cache is off
(``REPRO_NO_CACHE=1``) and ``REPRO_KERNELS`` is unset.  The source tree
is byte-compiled first, so set-up time excludes one-off ``.pyc`` writes.
Then:

1. ``worker.py gen`` writes the seed's inputs (its memory and time do
   not count);
2. ``worker.py setup`` runs the workload's set-up in a fresh process
   several times; ``setup_s`` is the median time from process start to
   its ``ready`` line, the measured run's own set-up included;
3. ``worker.py run`` sets up once more and measures in one process.
   Each repetition's timed part is divided by the time of a fixed
   reference job taken just before and just after it
   (``common.reference_s``), because the shared host's cores drift in
   speed; ``wall_ref`` is the median of these ratios.  The raw times
   are in the ``meta`` line, and their median is ``wall_s`` in a traced
   run.

``--plant`` corrupts one answer the workload checks, to show that the
checks catch it (see ``selftest.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
#: Extra set-up-only processes per run (the measured run adds one sample).
SETUP_PROBES = 2
#: Wall-clock budget for everything a run starts, in seconds.
BUDGET_S = 170.0
DEFAULT_SEED = 20160213

#: What this benchmark leaves unmeasured, and why.
UNMEASURED = {
    "repro.lint": "about 4 s cold and gated by its own CI budget check",
    "repro.ml": "on neither the reproduction path nor the live query path",
    "process backend": "on 2 vCPUs it was slower and noisier than serial",
    "scatter-gather serving": "its thread fan-out on 2 vCPUs would measure the scheduler",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    return 1


def _environment(tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(ROOT / ".perfbench" / "pycache"),
        PYTHONHASHSEED="0",
        REPRO_NO_CACHE="1",
        REPRO_CACHE_DIR=str(tmp / "cache"),
        XDG_CACHE_HOME=str(tmp / "xdg"),
        # One malloc arena: with glibc's per-thread arenas, peak RSS grows
        # with every server thread a run happens to start, so it would
        # measure the repetition count rather than the program.
        MALLOC_ARENA_MAX="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class _Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(1.0, self.end - time.monotonic())


def _until_ready(cmd: list[str], env: dict, deadline: _Deadline) -> tuple[float, int]:
    """Start ``cmd``; seconds until it prints ``ready``, and its exit code.

    A process still running at the deadline is killed (exit code < 0).
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(deadline.left(), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if line.strip() != "ready":
        return ready, code or 1
    return ready, code


def _measure(args, tmp: Path, deadline: _Deadline) -> dict | int:
    env = _environment(tmp)
    py = sys.executable
    inputs = tmp / "inputs"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--inputs", str(inputs)]
    subprocess.run(
        [py, "-m", "compileall", "-q", str(ROOT / "src" / "repro"), str(HERE)],
        env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=deadline.left(),
    )
    subprocess.run([py, str(WORKER), "gen", *common], env=env, cwd=ROOT, check=True, timeout=deadline.left())
    samples = []
    for probe in range(SETUP_PROBES):
        probe_tmp = tmp / f"setup-{probe}"
        probe_tmp.mkdir()
        ready, code = _until_ready(
            [py, str(WORKER), "setup", *common, "--tmp", str(probe_tmp)], env, deadline
        )
        if code:
            return _fail(f"set-up of {args.workload} failed (exit {code})")
        samples.append(ready)
    out = tmp / "result.json"
    run_tmp = tmp / "run"
    run_tmp.mkdir()
    cmd = [
        py, str(WORKER), "run", *common, "--tmp", str(run_tmp), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(out),
    ]
    if args.trace:
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-{args.seed}.jsonl")]
    if args.plant:
        cmd.append("--plant")
    ready, code = _until_ready(cmd, env, deadline)
    if code or not out.exists():
        return _fail(f"measured run of {args.workload} failed (exit {code})")
    samples.append(ready)
    result = json.loads(out.read_text(encoding="utf-8"))
    result["setup_samples_s"] = samples
    result["metrics"]["setup_s"] = statistics.median(samples)
    return result


def _report(args, spec: dict, result: dict) -> dict:
    """Print the readable report; return the metrics of the result line."""
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(result["metrics"]) - known)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {}
    for m in wanted:
        # Layers a workload does not load report zero for that layer.
        value = float(result["metrics"].get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for name, entry in metrics.items():
        if args.trace and not entry["value"]:
            continue
        print(f"{name:<34} {entry['value']:>16.6g} {entry['unit']}")
    if result.get("layers"):
        print("self time by layer (sums to trace.wall_s):")
        for layer, seconds in result["layers"].items():
            print(f"  {layer:<16} {seconds:>10.4f} s")
    return metrics


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no source tree at {ROOT / 'src' / 'repro'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")

    deadline = _Deadline(BUDGET_S)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench"))
    try:
        result = _measure(args, tmp, deadline)
    except (subprocess.SubprocessError, OSError) as exc:
        result = _fail(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if isinstance(result, int):
        return result

    metrics = _report(args, spec, result)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": result["input_seed"],
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": result.get("numpy", "unknown"),
        "reps": result["reps"],
        "rep_wall_s": result["rep_wall_s"],
        "rep_ref_s": result["rep_ref_s"],
        "setup_samples_s": result["setup_samples_s"],
        "unmeasured": UNMEASURED,
    }
    print(json.dumps({"meta": meta}))
    line = {
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
