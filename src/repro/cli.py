"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands::

    repro report                 # headline paper-vs-measured table
    repro experiment fig06       # regenerate one figure/table
    repro all                    # every experiment, paper order
    repro list                   # available experiment ids
    repro campaign --out DIR     # run the campaign, write per-node logs
    repro campaign --stream-out DIR  # stream records into a live archive
    repro cache                  # show (or --clear) the on-disk cache
    repro logs convert           # text logs <-> binary columnar archive
    repro logs inspect           # manifest summary (+ checksum --verify)
    repro logs upgrade           # upgrade a v1/v2 archive manifest to v3
    repro ingest --dir DIR       # append text logs to a live archive
    repro compact --dir DIR      # LSM-merge a live archive's segments
    repro query --dir DIR        # run one query plan against an archive
    repro serve --dir DIR        # HTTP/JSON fleet telemetry server
    repro ml train --dir DIR     # fit the degradation predictor
    repro ml predict --dir DIR   # score nodes with a registry model
"""

from __future__ import annotations

import argparse
import sys

from .core.rng import DEFAULT_SEED
from .parallel import BACKENDS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Unprotected Computing: A Large-Scale Study "
            "of DRAM Raw Error Rate on a Supercomputer' (SC'16)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="campaign random seed"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use the small fast campaign instead of the paper-scale one",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="parallel workers for the campaign (-1 = all CPUs; default 1)",
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="execution backend (auto resolves to process when N > 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk campaign cache (~/.cache/repro)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "retry budget per node before it is reported as degraded "
            "(enables the fault-tolerant supervisor)"
        ),
    )
    parser.add_argument(
        "--unit-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-node watchdog timeout; hung workers are killed and the "
            "node retried (process backend only)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("report", help="print the headline paper-vs-measured table")
    sub.add_parser("list", help="list experiment ids")
    sub.add_parser("all", help="run every experiment in paper order")
    sub.add_parser(
        "verify", help="check every quantitative paper claim (PASS/FAIL)"
    )

    exp = sub.add_parser("experiment", help="run one experiment")
    exp.add_argument("exp_id", help="experiment id (see 'repro list')")

    camp = sub.add_parser("campaign", help="run the campaign and dump logs")
    camp.add_argument(
        "--out", default=None, help="directory for per-node text logs"
    )
    camp.add_argument(
        "--stream-out",
        default=None,
        metavar="DIR",
        help=(
            "stream records into a live columnar archive at DIR as nodes "
            "complete (bounded parent memory; queryable while running); "
            "a second run on DIR resumes the campaign it holds"
        ),
    )
    camp.add_argument(
        "--stream-flush-nodes",
        type=int,
        default=64,
        metavar="N",
        help="completed nodes per streamed L0 segment commit",
    )

    exp_csv = sub.add_parser("export", help="export every experiment as CSV")
    exp_csv.add_argument("--out", required=True, help="directory for CSV files")

    mon = sub.add_parser(
        "monitor", help="review a log directory and print operational advice"
    )
    mon.add_argument("--dir", required=True, help="directory of <node>.log files")

    cache = sub.add_parser("cache", help="inspect or clear the campaign cache")
    cache.add_argument(
        "--clear", action="store_true", help="delete every cached entry"
    )

    logs = sub.add_parser("logs", help="columnar log-archive tools")
    logs_sub = logs.add_subparsers(dest="logs_command", required=True)
    conv = logs_sub.add_parser(
        "convert",
        help="convert between text logs and the binary columnar archive",
    )
    conv.add_argument(
        "--in", dest="src", required=True, help="source directory"
    )
    conv.add_argument(
        "--out", dest="dst", required=True, help="destination directory"
    )
    conv.add_argument(
        "--to-text",
        action="store_true",
        help="convert columnar back to <node>.log text (default: text -> columnar)",
    )
    insp = logs_sub.add_parser(
        "inspect", help="print a columnar archive's manifest summary"
    )
    insp.add_argument("--dir", required=True, help="columnar archive directory")
    insp.add_argument(
        "--verify",
        action="store_true",
        help="re-read every shard and verify its sha256 checksum",
    )
    upg = logs_sub.add_parser(
        "upgrade",
        help=(
            "upgrade a v1/v2 archive manifest to v3 in place (zone maps, "
            "levels, generation; shard files untouched)"
        ),
    )
    upg.add_argument("--dir", required=True, help="columnar archive directory")

    ing = sub.add_parser(
        "ingest",
        help="append a directory of text logs to a live columnar archive",
    )
    ing.add_argument(
        "--dir", required=True, help="live archive directory (created if absent)"
    )
    ing.add_argument(
        "--from",
        dest="src",
        required=True,
        metavar="DIR",
        help="directory of <node>.log text files to ingest",
    )
    ing.add_argument(
        "--batch-prefix",
        default=None,
        metavar="PREFIX",
        help=(
            "ledger id prefix for this ingest (default: the source "
            "directory name); re-running the same ingest is a no-op"
        ),
    )

    cmp_ = sub.add_parser(
        "compact",
        help="merge a live archive's small segments into sorted runs",
    )
    cmp_.add_argument("--dir", required=True, help="live archive directory")
    cmp_.add_argument(
        "--dry-run",
        action="store_true",
        help="report what a compaction pass would do without writing",
    )
    cmp_.add_argument(
        "--max-segment-rows",
        type=int,
        default=1_000_000,
        metavar="N",
        help="row cap per output segment",
    )
    cmp_.add_argument(
        "--max-segment-nodes",
        type=int,
        default=256,
        metavar="N",
        help="node cap per output segment",
    )
    cmp_.add_argument(
        "--no-verify",
        action="store_true",
        help="skip checksum verification of consumed segments",
    )

    qry = sub.add_parser(
        "query", help="execute one query plan against a columnar archive"
    )
    qry.add_argument("--dir", required=True, help="columnar archive directory")
    plan_src = qry.add_mutually_exclusive_group(required=True)
    plan_src.add_argument("--plan", help="plan as inline JSON (see docs/QUERY.md)")
    plan_src.add_argument("--plan-file", help="path to a plan JSON file")
    plan_src.add_argument(
        "--preset",
        choices=sorted(QUERY_PRESETS),
        help="one of the canned fleet queries",
    )
    qry.add_argument(
        "--no-prune",
        action="store_true",
        help="disable zone-map shard pruning (scan everything)",
    )

    srv = sub.add_parser(
        "serve", help="serve an archive over HTTP/JSON (see docs/QUERY.md)"
    )
    srv.add_argument("--dir", required=True, help="columnar archive directory")
    srv.add_argument("--host", default="127.0.0.1", help="bind address")
    srv.add_argument(
        "--port", type=int, default=8642, help="bind port (0 = ephemeral)"
    )
    srv.add_argument(
        "--max-concurrency",
        type=int,
        default=8,
        metavar="N",
        help="maximum requests processed at once",
    )
    srv.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-request execution timeout",
    )
    srv.add_argument(
        "--client-read-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="timeout for reading a request head and body",
    )
    srv.add_argument(
        "--keepalive-idle-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="idle timeout between keep-alive requests",
    )
    srv.add_argument(
        "--keepalive-max-requests",
        type=int,
        default=100,
        metavar="N",
        help="requests served per connection before forcing close",
    )
    srv.add_argument(
        "--max-queue-depth",
        type=int,
        default=32,
        metavar="N",
        help="requests allowed to wait for a slot before 503 shedding",
    )
    srv.add_argument(
        "--rate-limit-qps",
        type=float,
        default=None,
        metavar="QPS",
        help="per-client admission rate (token bucket; default: off)",
    )
    srv.add_argument(
        "--rate-limit-burst",
        type=float,
        default=None,
        metavar="N",
        help="per-client burst capacity (default: same as the rate)",
    )
    srv.add_argument(
        "--read-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-shard-read timeout (default: unbounded)",
    )
    srv.add_argument(
        "--max-stale",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="staleness bound for degraded (last-good) responses",
    )
    srv.add_argument(
        "--shard-workers",
        type=int,
        default=0,
        metavar="N",
        help="scatter-gather worker lanes (0 = single-engine serving)",
    )
    srv.add_argument(
        "--hedge-delay",
        type=float,
        default=0.1,
        metavar="SECONDS",
        help="delay before hedging a slow scatter partition",
    )
    srv.add_argument(
        "--model-registry",
        default=None,
        metavar="DIR",
        help=(
            "model registry directory; enables the /predict endpoint "
            "scoring nodes with the registry's active model"
        ),
    )

    mlp = sub.add_parser(
        "ml",
        help="degradation prediction (see docs/PREDICTION.md)",
    )
    ml_sub = mlp.add_subparsers(dest="ml_command", required=True)

    def _add_spec_args(p) -> None:
        p.add_argument(
            "--windows",
            default="24,72,168",
            metavar="H,H,...",
            help="feature window lengths in hours, ascending",
        )
        p.add_argument(
            "--horizon",
            type=float,
            default=24.0,
            metavar="HOURS",
            help="label horizon: how far ahead degradation is predicted",
        )
        p.add_argument(
            "--label-threshold",
            type=int,
            default=4,
            metavar="N",
            help="errors within the horizon that make a node 'degrading'",
        )

    def _add_span_args(p) -> None:
        p.add_argument(
            "--start", type=float, default=0.0, metavar="HOURS",
            help="dataset span start",
        )
        p.add_argument(
            "--end", type=float, default=None, metavar="HOURS",
            help="dataset span end (default: newest record)",
        )
        p.add_argument(
            "--split", type=float, default=None, metavar="HOURS",
            help="train/eval split instant (default: 70%% of the span)",
        )
        p.add_argument(
            "--stride", type=float, default=24.0, metavar="HOURS",
            help="reference-time stride",
        )

    ml_feat = ml_sub.add_parser(
        "featurize", help="extract the per-node feature matrix at one instant"
    )
    ml_feat.add_argument("--dir", required=True, help="columnar archive directory")
    ml_feat.add_argument(
        "--t0", type=float, default=None, metavar="HOURS",
        help="reference instant (default: newest record)",
    )
    _add_spec_args(ml_feat)

    ml_train = ml_sub.add_parser(
        "train", help="fit a predictor on an archive and store the artifact"
    )
    ml_train.add_argument("--dir", required=True, help="columnar archive directory")
    ml_train.add_argument(
        "--registry", default=None, metavar="DIR",
        help="model registry to store the artifact in",
    )
    ml_train.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the artifact bytes to FILE",
    )
    ml_train.add_argument(
        "--model", choices=("logreg", "stumps"), default="logreg",
        help="model family",
    )
    ml_train.add_argument(
        "--promote", action="store_true",
        help="make the new model the registry's active model",
    )
    _add_spec_args(ml_train)
    _add_span_args(ml_train)

    ml_eval = ml_sub.add_parser(
        "evaluate", help="score a stored model on a hold-out period"
    )
    ml_eval.add_argument("--dir", required=True, help="columnar archive directory")
    ml_eval.add_argument("--registry", required=True, metavar="DIR")
    ml_eval.add_argument(
        "--model-id", default=None, help="model id (default: active)"
    )
    _add_spec_args(ml_eval)
    _add_span_args(ml_eval)

    ml_pred = ml_sub.add_parser(
        "predict", help="score every node with the registry's active model"
    )
    ml_pred.add_argument("--dir", required=True, help="columnar archive directory")
    ml_pred.add_argument("--registry", required=True, metavar="DIR")
    ml_pred.add_argument(
        "--model-id", default=None, help="model id (default: active)"
    )
    ml_pred.add_argument(
        "--t0", type=float, default=None, metavar="HOURS",
        help="reference instant (default: newest record)",
    )
    ml_pred.add_argument(
        "--limit", type=int, default=None, metavar="N", help="top-N nodes only"
    )
    ml_pred.add_argument(
        "--threshold", type=float, default=None, metavar="P",
        help="only nodes scoring at least P",
    )

    ml_reg = ml_sub.add_parser(
        "registry", help="list, promote, or roll back registry models"
    )
    ml_reg.add_argument("--registry", required=True, metavar="DIR")
    ml_reg.add_argument(
        "--promote", default=None, metavar="ID", help="promote this model id"
    )
    ml_reg.add_argument(
        "--rollback", action="store_true",
        help="re-activate the previously active model",
    )

    lint = sub.add_parser(
        "lint",
        help="run the repo-specific static-invariant checker (reprolint)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "json-v1", "sarif"),
        default="text",
        help="finding output format (json = schema_version 2)",
    )
    lint.add_argument(
        "--rules",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print acknowledged (suppressed) findings",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    lint.add_argument(
        "--changed",
        default=None,
        metavar="REF",
        help="report only findings in files changed since REF (plus "
             "their reverse call-graph dependents); analysis still "
             "spans the whole tree",
    )
    lint.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental analysis cache (full cold run)",
    )
    lint.add_argument(
        "--cache-file",
        default=None,
        metavar="PATH",
        help="incremental cache location (default: "
             "$REPRO_LINT_CACHE_DIR or ~/.cache/repro-lint, keyed by "
             "the working directory)",
    )
    lint.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="parallel per-module analysis threads (default: 4)",
    )
    return parser


#: Canned plans for `repro query --preset` (and the CI smoke job).
QUERY_PRESETS: dict[str, dict] = {
    "errors-by-node": {
        "filters": [{"column": "kind", "op": "eq", "value": 1}],
        "group_by": ["node"],
        "aggregates": [{"fn": "count"}],
    },
    "errors-by-hour": {
        "filters": [{"column": "kind", "op": "eq", "value": 1}],
        "derive": [{"name": "hour", "fn": "hour"}],
        "group_by": ["hour"],
        "aggregates": [{"fn": "count"}],
    },
    "multibit-errors": {
        "filters": [
            {"column": "kind", "op": "eq", "value": 1},
            {"column": "n_bits", "op": "ge", "value": 2},
        ],
        "derive": [{"name": "n_bits", "fn": "n_bits"}],
        "project": ["node", "t", "n_bits"],
        "order_by": ["t"],
    },
}


def _cmd_logs(args) -> int:
    from pathlib import Path

    from .core.errors import LogFormatError
    from .logs.columnar import ColumnarArchive, read_manifest

    try:
        if args.logs_command == "convert":
            if not Path(args.src).is_dir():
                print(f"error: no such directory: {args.src}", file=sys.stderr)
                return 2
            if args.to_text:
                archive = ColumnarArchive.load(args.src)
                archive.write_text_directory(args.dst)
                print(
                    f"wrote text logs for {len(archive.nodes)} nodes "
                    f"({archive.n_records():,} records) to {args.dst}"
                )
                return 0
            archive = ColumnarArchive.read_text_directory(
                args.src, workers=args.workers, backend=args.backend
            )
            manifest = archive.save(args.dst)
            print(
                f"wrote {manifest['n_nodes']} shards to {args.dst} "
                f"({manifest['n_records']:,} records, "
                f"{manifest['n_raw_lines']:,} raw error lines)"
            )
            return 0

        if args.logs_command == "upgrade":
            from .logs.columnar import FORMAT_VERSION, upgrade_archive

            before = read_manifest(args.dir).get("format_version")
            manifest = upgrade_archive(args.dir)
            if before == manifest["format_version"]:
                print(
                    f"{args.dir} already at format v{manifest['format_version']} "
                    f"with zone maps; nothing to do"
                )
            else:
                print(
                    f"upgraded {args.dir} from v{before} to v{FORMAT_VERSION}: "
                    f"zone maps for {len(manifest['shards'])} shard(s) "
                    f"(shard files untouched)"
                )
            return 0

        # inspect
        manifest = read_manifest(args.dir)
        print(
            f"{manifest.get('format')} v{manifest.get('format_version')} "
            f"(written by {manifest.get('writer', 'unknown')})"
        )
        shards = manifest["shards"]
        print(
            f"{manifest.get('n_nodes', len(shards))} shards, "
            f"{manifest.get('n_records', 0):,} records, "
            f"{manifest.get('n_errors', 0):,} error records, "
            f"{manifest.get('n_raw_lines', 0):,} raw error lines"
        )
        from pathlib import Path as _Path

        for entry in shards:
            shard_path = _Path(args.dir) / entry["file"]
            try:
                size = f"{shard_path.stat().st_size:,} bytes"
            except OSError:
                size = "MISSING FILE"
            zone = "zone-map" if entry.get("zone_map") else "no zone-map"
            label = entry.get("node")
            if label is None:  # v3 multi-node segment
                n_nodes = entry.get("n_nodes", len(entry.get("nodes") or []))
                label = f"{entry['file']} ({n_nodes} nodes, L{entry.get('level', 0)})"
            print(
                f"  {label}: {entry.get('n_records', 0):,} records "
                f"({entry.get('n_raw_lines', 0):,} raw lines) "
                f"{size} [{zone}] sha256={entry['sha256'][:12]}…"
            )
        if args.verify:
            ColumnarArchive.load(args.dir, verify_checksums=True)
            print("all shard checksums verified")
        return 0
    except LogFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_ingest(args) -> int:
    from pathlib import Path

    from .core.errors import LogFormatError
    from .logs.columnar import RecordColumns, read_log_file
    from .logs.ingest import LiveArchive
    from .logs.store import directory_log_files, node_stem

    src = Path(args.src)
    if not src.is_dir():
        print(f"error: no such directory: {src}", file=sys.stderr)
        return 2
    prefix = args.batch_prefix if args.batch_prefix is not None else src.name
    try:
        files = directory_log_files(src)
        batches: dict[str, RecordColumns] = {}
        for path in files:
            batches[f"{prefix}:{node_stem(path)}"] = read_log_file(path)
        live = LiveArchive.create(args.dir)
        report = live.append_batch(batches)
    except LogFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if report.committed:
        print(
            f"committed {len(report.committed)} batch(es) "
            f"({report.n_records:,} records) to {args.dir} as "
            f"{report.segment} [generation {report.generation}]"
        )
    if report.deduplicated:
        print(
            f"skipped {len(report.deduplicated)} already-committed batch(es)"
        )
    if not report.committed and not report.deduplicated:
        print(f"nothing to ingest from {src}")
    return 0


def _cmd_compact(args) -> int:
    from .core.errors import LogFormatError
    from .logs.ingest import compact_archive

    try:
        report = compact_archive(
            args.dir,
            max_segment_rows=args.max_segment_rows,
            max_segment_nodes=args.max_segment_nodes,
            verify_checksums=not args.no_verify,
            dry_run=args.dry_run,
        )
    except LogFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if report.entries_consumed == 0:
        print(f"{args.dir} is fully compacted; nothing to do")
        return 0
    verb = "would merge" if report.dry_run else "merged"
    print(
        f"{verb} {report.entries_consumed} segment(s) "
        f"({report.n_records:,} records, {report.n_components} component(s)) "
        f"into {report.segments_written or report.n_components} sorted "
        f"run(s) at level <= {report.max_level} "
        f"[generation {report.generation}]"
    )
    return 0


def _cmd_query(args) -> int:
    import json
    from pathlib import Path

    from .core.errors import LogFormatError, QueryPlanError
    from .query import Query, QueryEngine

    try:
        if args.preset:
            plan = Query.from_dict(QUERY_PRESETS[args.preset])
        elif args.plan_file:
            path = Path(args.plan_file)
            if not path.is_file():
                print(f"error: no such plan file: {path}", file=sys.stderr)
                return 2
            plan = Query.from_json(path.read_text(encoding="utf-8"))
        else:
            plan = Query.from_json(args.plan)
        engine = QueryEngine(args.dir, prune=not args.no_prune)
        result = engine.execute(plan, use_cache=False)
    except (LogFormatError, QueryPlanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = result.to_dict()
    payload["io"] = engine.source.io.to_dict()
    try:
        print(json.dumps(payload, indent=2, sort_keys=True))
    except BrokenPipeError:
        # Reader hung up early (e.g. `repro query ... | head`): fine.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _git_changed_files(ref: str) -> list[str]:
    """``*.py`` paths changed since ``ref`` (diff + untracked)."""
    import subprocess

    files: set[str] = set()
    diff = subprocess.run(
        ["git", "diff", "--name-only", ref, "--"],
        capture_output=True, text=True,
    )
    if diff.returncode != 0:
        raise RuntimeError(
            f"git diff against {ref!r} failed: {diff.stderr.strip()}"
        )
    files.update(diff.stdout.splitlines())
    untracked = subprocess.run(
        ["git", "ls-files", "--others", "--exclude-standard"],
        capture_output=True, text=True,
    )
    if untracked.returncode == 0:
        files.update(untracked.stdout.splitlines())
    return sorted(f for f in files if f.endswith(".py"))


def _cmd_lint(args) -> int:
    """Exit 0 clean, 1 findings, 2 internal error (see docs/LINTING.md)."""
    from pathlib import Path

    from .lint import (
        LintConfig,
        all_rules,
        default_cache_path,
        render_json,
        render_json_v1,
        render_sarif,
        render_text,
        run_lint,
    )

    try:
        if args.list_rules:
            for rule_id, rule in sorted(all_rules().items()):
                print(f"{rule_id}  [{rule.category}] {rule.title}")
            return 0
        rules: tuple = ()
        if args.rules:
            rules = tuple(
                part.strip() for part in args.rules.split(",") if part.strip()
            )
        focus = None
        if args.changed is not None:
            try:
                focus = _git_changed_files(args.changed)
            except (RuntimeError, OSError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        cache_path = None
        if not args.no_cache:
            cache_path = (
                Path(args.cache_file) if args.cache_file
                else default_cache_path(Path.cwd())
            )
        result = run_lint(
            list(args.paths),
            LintConfig(rules=rules, jobs=args.jobs),
            cache_path=cache_path,
            focus=focus,
        )
        if args.format == "json":
            print(render_json(result))
        elif args.format == "json-v1":
            print(render_json_v1(result))
        elif args.format == "sarif":
            print(render_sarif(result))
        else:
            print(render_text(result, show_suppressed=args.show_suppressed))
        return result.exit_code
    except BrokenPipeError:
        # Reader hung up early (e.g. `repro lint ... | head`): fine.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _parse_windows(text: str) -> tuple[float, ...]:
    return tuple(float(w) for w in text.split(",") if w.strip())


def _ml_spec(args):
    from .ml import FeatureSpec

    return FeatureSpec(
        windows_hours=_parse_windows(args.windows),
        horizon_hours=args.horizon,
        label_threshold=args.label_threshold,
    )


def _ml_dataset(args, engine, spec):
    """Build the sliding-window dataset and split it per the span args."""
    from .ml import DatasetSpec, build_dataset, time_split
    from .ml.online import CLOCK_PLAN

    end = args.end
    if end is None:
        newest = engine.execute(CLOCK_PLAN, use_cache=False).column("max_t")
        end = float(newest[0]) if newest.shape[0] else 0.0
    split = args.split
    if split is None:
        split = args.start + 0.7 * (end - args.start)
    dataset = build_dataset(
        engine,
        DatasetSpec(
            features=spec,
            start_hours=args.start,
            end_hours=end,
            stride_hours=args.stride,
        ),
    )
    train_ds, eval_ds = time_split(dataset, split)
    return dataset, train_ds, eval_ds, split, end


def _cmd_ml(args) -> int:
    import json

    from .core.errors import LogFormatError
    from .ml import ModelRegistry, RegistryError
    from .query import QueryEngine

    try:
        if args.ml_command == "registry":
            registry = ModelRegistry(args.registry, create=False)
            if args.promote:
                registry.promote(args.promote)
            if args.rollback:
                registry.rollback()
            print(
                json.dumps(
                    {
                        "active": registry.active_id,
                        "models": registry.list_models(),
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0

        if args.ml_command == "featurize":
            from .ml import extract_features
            from .ml.online import CLOCK_PLAN

            engine = QueryEngine(args.dir)
            spec = _ml_spec(args)
            t0 = args.t0
            if t0 is None:
                newest = engine.execute(
                    CLOCK_PLAN, use_cache=False
                ).column("max_t")
                t0 = float(newest[0]) if newest.shape[0] else 0.0
            feats = extract_features(engine, t0, spec)
            print(
                json.dumps(
                    {
                        "t0_hours": feats.t0,
                        "feature_names": list(feats.names),
                        "nodes": {
                            node: [float(v) for v in feats.X[i]]
                            for i, node in enumerate(feats.nodes)
                        },
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0

        if args.ml_command == "train":
            from .ml import TrainConfig, fit_and_evaluate, reference_from_features

            engine = QueryEngine(args.dir)
            spec = _ml_spec(args)
            _, train_ds, eval_ds, split, end = _ml_dataset(args, engine, spec)
            if train_ds.n_samples == 0:
                print("error: training split is empty", file=sys.stderr)
                return 1
            config = TrainConfig(model_type=args.model, seed=args.seed)
            reference = reference_from_features(
                train_ds.X, train_ds.feature_names, base_rate=train_ds.base_rate
            )
            report = fit_and_evaluate(
                train_ds,
                eval_ds,
                config,
                metadata={
                    "feature_spec": spec.to_dict(),
                    "drift_reference": reference.to_dict(),
                    "train_span_hours": [args.start, split],
                    "eval_span_hours": [split, end],
                },
            )
            model_id = None
            if args.registry:
                registry = ModelRegistry(args.registry)
                model_id = registry.add(
                    report.artifact,
                    metadata={"eval_auc": report.metrics_eval["auc"]},
                    promote=args.promote,
                )
            if args.out:
                with open(args.out, "wb") as fh:
                    fh.write(report.artifact)
            out = report.to_dict()
            out["model_id"] = model_id
            print(json.dumps(out, indent=2, sort_keys=True))
            return 0

        if args.ml_command == "evaluate":
            from .ml import FeatureSpec, evaluate_model

            registry = ModelRegistry(args.registry, create=False)
            model, metadata, model_id = registry.load(args.model_id)
            engine = QueryEngine(args.dir)
            spec = (
                FeatureSpec.from_dict(metadata["feature_spec"])
                if "feature_spec" in metadata
                else _ml_spec(args)
            )
            _, _, eval_ds, split, end = _ml_dataset(args, engine, spec)
            if eval_ds.n_samples == 0:
                print("error: evaluation split is empty", file=sys.stderr)
                return 1
            metrics = evaluate_model(model, eval_ds)
            metrics["model_id"] = model_id
            metrics["eval_span_hours"] = [split, end]
            print(json.dumps(metrics, indent=2, sort_keys=True))
            return 0

        # predict
        from .ml import OnlinePredictor

        registry = ModelRegistry(args.registry, create=False)
        predictor = OnlinePredictor(
            args.dir, registry, model_id=args.model_id
        )
        board = predictor.refresh(args.t0)
        print(
            json.dumps(
                {
                    "model_id": board.model_id,
                    "t0_hours": board.t0,
                    "n_nodes": len(board.nodes),
                    "scores": board.top(
                        limit=args.limit, threshold=args.threshold
                    ),
                    "status": predictor.status(),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    except (LogFormatError, RegistryError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_serve(args) -> int:
    import asyncio

    from .core.errors import LogFormatError
    from .server import TelemetryServer

    predictor = None
    if args.model_registry:
        from .ml import ModelRegistry, OnlinePredictor, RegistryError

        try:
            predictor = OnlinePredictor(
                args.dir, ModelRegistry(args.model_registry, create=False)
            )
        except RegistryError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    try:
        server = TelemetryServer(
            args.dir,
            predictor=predictor,
            host=args.host,
            port=args.port,
            max_concurrency=args.max_concurrency,
            request_timeout_s=args.timeout,
            client_read_timeout_s=args.client_read_timeout,
            keepalive_idle_timeout_s=args.keepalive_idle_timeout,
            keepalive_max_requests=args.keepalive_max_requests,
            max_queue_depth=args.max_queue_depth,
            rate_limit_qps=args.rate_limit_qps,
            rate_limit_burst=args.rate_limit_burst,
            read_timeout_s=args.read_timeout,
            max_stale_s=args.max_stale,
            shard_workers=args.shard_workers,
            hedge_delay_s=args.hedge_delay,
        )
    except (LogFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    async def _run() -> None:
        await server.start()
        print(
            f"serving {args.dir} on http://{server.host}:{server.port} "
            f"(max {server.max_concurrency} concurrent, "
            f"{server.request_timeout_s:g}s timeout)",
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _degraded_exit(campaign, status: int) -> int:
    """``status``, or 3 with a ``DEGRADED`` line on stderr when the
    campaign lost nodes: a degraded answer is always flagged."""
    degraded = campaign.degraded
    if degraded is not None and degraded.n_failed:
        print(f"DEGRADED: {degraded.summary()}", file=sys.stderr)
        return 3
    return status


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "logs":
        return _cmd_logs(args)
    if args.command == "ingest":
        return _cmd_ingest(args)
    if args.command == "compact":
        return _cmd_compact(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "ml":
        return _cmd_ml(args)
    if args.command == "lint":
        return _cmd_lint(args)

    # Imports deferred so `repro list --help` stays instant.
    from .experiments import EXPERIMENT_ORDER, get_analysis, run_all, run_experiment

    if args.command == "list":
        for exp_id in EXPERIMENT_ORDER:
            print(exp_id)
        return 0

    if args.command == "monitor":
        from pathlib import Path

        from .core import timeutils
        from .monitoring import monitor_directory

        if not Path(args.dir).is_dir():
            print(f"error: no such log directory: {args.dir}", file=sys.stderr)
            return 2
        count = 0
        for advice in monitor_directory(args.dir):
            when = timeutils.hours_to_datetime(advice.time_hours)
            print(f"{when:%Y-%m-%d %H:%M} {advice.node} [{advice.kind}] {advice.reason}")
            count += 1
        print(f"{count} recommendations")
        return 0

    if args.command == "cache":
        from .cache import default_cache

        store = default_cache()
        if args.clear:
            removed = store.clear()
            print(f"removed {removed} cached campaign(s) from {store.root}")
            return 0
        entries = store.entries()
        size_mb = store.size_bytes() / (1024.0 * 1024.0)
        state = "enabled" if store.enabled else "disabled (REPRO_NO_CACHE)"
        print(f"cache: {store.root} [{state}]")
        print(f"{len(entries)} entrie(s), {size_mb:.1f} MiB")
        return 0

    if args.command == "campaign":
        from .core.errors import CheckpointError
        from .faultinjection import (
            paper_campaign_config,
            quick_campaign_config,
            run_campaign,
        )
        from .parallel import RetryPolicy

        config = (
            quick_campaign_config(args.seed)
            if args.quick
            else paper_campaign_config(args.seed)
        )
        if args.out is None and args.stream_out is None:
            print(
                "error: pass --out DIR and/or --stream-out DIR",
                file=sys.stderr,
            )
            return 2
        retry = RetryPolicy(retries=args.retries) if args.retries is not None else None
        try:
            result = run_campaign(
                config,
                workers=args.workers,
                backend=args.backend,
                retry=retry,
                unit_timeout=args.unit_timeout,
                stream_to=args.stream_out,
                stream_flush_nodes=args.stream_flush_nodes,
            )
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.stream_out is not None:
            print(
                f"streamed {result.archive.n_records():,} records for "
                f"{len(result.archive.nodes)} nodes into {args.stream_out} "
                f"(compact with `repro compact --dir {args.stream_out}`)"
            )
        if args.out is not None:
            result.archive.write_text_directory(args.out)
            print(
                f"wrote logs for {len(result.archive.nodes)} nodes to {args.out} "
                f"({result.n_raw_error_lines():,} raw error lines compressed "
                f"into {result.archive.n_records():,} records)"
            )
        if result.metrics is not None:
            print(f"simulated {result.metrics.summary()}")
            slowest = ", ".join(
                f"{node} {seconds:.2f}s"
                for node, seconds in result.metrics.slowest_nodes(3)
            )
            if slowest:  # empty when every unit was resumed
                print(f"slowest nodes: {slowest}")
        return _degraded_exit(result, 0)

    if args.command == "experiment" and args.exp_id not in EXPERIMENT_ORDER:
        # Validate before paying for the campaign.
        print(
            f"error: unknown experiment {args.exp_id!r} "
            f"(see 'repro list')",
            file=sys.stderr,
        )
        return 2

    from .parallel import RetryPolicy

    analysis = get_analysis(
        args.seed,
        quick=args.quick,
        workers=args.workers,
        backend=args.backend,
        use_cache=not args.no_cache,
        retry=RetryPolicy(retries=args.retries) if args.retries is not None else None,
        unit_timeout=args.unit_timeout,
    )
    if args.command == "report":
        print(analysis.report().summary())
        status = 0
    elif args.command == "experiment":
        print(run_experiment(args.exp_id, analysis).to_text())
        status = 0
    elif args.command == "all":
        for result in run_all(analysis):
            print(result.to_text())
            print()
        status = 0
    elif args.command == "export":
        from .experiments.export import export_all, export_report

        paths = export_all(analysis, args.out)
        report_path = export_report(analysis, args.out)
        print(f"wrote {len(paths)} experiment CSVs and {report_path.name} to {args.out}")
        status = 0
    elif args.command == "verify":
        from .experiments.verify import render, verify

        results = verify(analysis)
        print(render(results))
        status = 0 if all(r.passed for r in results) else 1
    else:
        return 2
    return _degraded_exit(analysis.campaign, status)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
