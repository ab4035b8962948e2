"""Reporters for lint results: canonical JSONL and a console table.

Both reuse the repo's existing formatting machinery rather than
inventing a third convention: the JSONL form goes through
:func:`repro.obs.export.canonical_jsonl` (sorted keys, no spaces,
trailing newline — byte-identical across runs and hash seeds) and the
table form goes through :class:`repro.metrics.reporting.Table`, the
same fixed-width renderer the benches use.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.analysis.engine import LintResult
from repro.analysis.findings import Finding
from repro.metrics.reporting import Table
from repro.obs.export import canonical_jsonl

__all__ = ["findings_to_jsonl", "render_table", "render_summary"]


def findings_to_jsonl(findings: List[Finding]) -> str:
    """Canonical JSONL, one finding per line, total order, stable bytes."""
    ordered = sorted(findings, key=Finding.sort_key)
    return canonical_jsonl(finding.to_dict() for finding in ordered)


def render_table(result: LintResult, verbose: bool = False) -> str:
    """Fixed-width findings table plus a one-line summary."""
    parts: List[str] = []
    if result.findings:
        table = Table(headers=["location", "rule", "message"])
        for finding in result.findings:
            table.add(
                f"{finding.path}:{finding.line}:{finding.col}",
                finding.rule,
                finding.message,
            )
        parts.append(table.render())
    if verbose and result.suppressed:
        table = Table(
            headers=["location", "rule", "reason"],
            title="suppressed (repro-lint: allow)",
        )
        for finding, suppression in result.suppressed:
            table.add(
                f"{finding.path}:{finding.line}:{finding.col}",
                finding.rule,
                suppression.reason,
            )
        parts.append(table.render())
    parts.append(render_summary(result))
    return "\n".join(part for part in parts if part)


def render_summary(result: LintResult) -> str:
    counts: List[Tuple[str, int]] = [
        ("finding", len(result.findings)),
        ("suppressed", len(result.suppressed)),
    ]
    detail = ", ".join(
        f"{count} {label}{'s' if label == 'finding' and count != 1 else ''}"
        for label, count in counts
    )
    return f"checked {result.files_checked} files: {detail}"
