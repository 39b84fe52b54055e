"""Reporters: text, JSON (``schema_version`` 2), and SARIF 2.1.0.

The JSON payload carries the analysis counters and timings CI asserts
on:

.. code-block:: json

    {
      "schema_version": 2,
      "clean": false,
      "files_scanned": 104,
      "analysis": {"cold": true, "modules_total": 104,
                   "modules_analyzed": 104, "modules_cached": 0,
                   "jobs": 4, "duration_s": 3.2,
                   "changed": ["..."], "dirty": ["..."]},
      "findings": [{"rule": "...", "path": "...", "line": 1, "col": 1,
                    "message": "...", "suppressed": false, "reason": ""}],
      "suppressed": [...],
      "errors": [{"path": "...", "message": "..."}],
      "summary": {"by_rule": {"DET001": 2}}
    }

SARIF output follows the OASIS 2.1.0 schema closely enough for GitHub
code scanning upload: one run, one driver, one rule descriptor per
distinct rule id, one result per live finding (suppressed findings are
carried with ``suppressions`` entries as the spec intends).
"""

from __future__ import annotations

import json

from .engine import LintResult
from .rules import all_rules

JSON_SCHEMA_VERSION = 2

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
_TOOL_NAME = "repro-lint"


def render_text(result: LintResult, *, show_suppressed: bool = False) -> str:
    lines: list[str] = []
    for error in result.errors:
        where = f"{error.path}: " if error.path else ""
        lines.append(f"error: {where}{error.message}")
    for finding in result.findings:
        lines.append(f"{finding.location()} {finding.rule} {finding.message}")
    if show_suppressed:
        for finding in result.suppressed:
            lines.append(
                f"{finding.location()} {finding.rule} suppressed "
                f"({finding.reason})"
            )
    n = len(result.findings)
    lines.append(
        f"{result.summary.files_scanned} files scanned: "
        + (
            f"{n} finding{'s' if n != 1 else ''}"
            if n
            else "clean"
        )
        + (
            f", {len(result.suppressed)} suppressed"
            if result.suppressed
            else ""
        )
    )
    analysis = result.analysis
    if analysis:
        lines.append(
            f"analysis: {analysis.get('modules_analyzed', 0)} analyzed, "
            f"{analysis.get('modules_cached', 0)} cached "
            f"({'cold' if analysis.get('cold') else 'warm'}, "
            f"{analysis.get('duration_s', 0.0):.2f}s)"
        )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    payload = {
        "schema_version": JSON_SCHEMA_VERSION,
        "clean": not result.findings and not result.errors,
        "files_scanned": result.summary.files_scanned,
        "analysis": result.analysis,
        "findings": [f.to_dict() for f in result.findings],
        "suppressed": [f.to_dict() for f in result.suppressed],
        "errors": [e.to_dict() for e in result.errors],
        "summary": {"by_rule": dict(sorted(result.summary.by_rule.items()))},
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _sarif_result(finding, *, suppressed: bool) -> dict:
    entry = {
        "ruleId": finding.rule,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": finding.path},
                "region": {
                    "startLine": finding.line,
                    "startColumn": finding.col,
                },
            },
        }],
    }
    if suppressed:
        entry["suppressions"] = [{
            "kind": "inSource",
            "justification": finding.reason,
        }]
    return entry


def render_sarif(result: LintResult) -> str:
    registry = all_rules()
    used = sorted(
        {f.rule for f in result.findings}
        | {f.rule for f in result.suppressed}
    )
    descriptors = []
    for rule_id in used:
        rule = registry.get(rule_id)
        descriptors.append({
            "id": rule_id,
            "name": rule.title if rule is not None else rule_id,
            "shortDescription": {
                "text": rule.title if rule is not None else rule_id,
            },
            "properties": {
                "category": rule.category if rule is not None else "lint",
            },
        })
    results = [
        _sarif_result(f, suppressed=False) for f in result.findings
    ] + [
        _sarif_result(f, suppressed=True) for f in result.suppressed
    ]
    invocation = {
        "executionSuccessful": not result.errors,
    }
    if result.errors:
        invocation["toolExecutionNotifications"] = [
            {
                "level": "error",
                "message": {"text": e.message},
                **(
                    {"locations": [{
                        "physicalLocation": {
                            "artifactLocation": {"uri": e.path},
                        },
                    }]}
                    if e.path else {}
                ),
            }
            for e in result.errors
        ]
    payload = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": _TOOL_NAME,
                    "informationUri": "https://example.invalid/repro-lint",
                    "rules": descriptors,
                },
            },
            "invocations": [invocation],
            "results": results,
        }],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
