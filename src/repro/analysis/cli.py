"""Command-line front end: ``python -m repro lint`` / ``tools/lint.py``.

Configuration is the defaults of
:class:`~repro.analysis.engine.LintConfig`; the default path list is
:data:`DEFAULT_PATHS` below.

Exit status: ``--strict`` exits 1 when any non-suppressed finding
remains (the CI gate); without ``--strict`` the run is advisory and
always exits 0.
Exit 2 means the run itself could not proceed — unknown rule id, or a
missing/invalid layer contract under ``--program`` — which CI must
treat as failure, never as "no findings".
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.engine import LintConfig, LintResult, lint_paths, repo_root
from repro.analysis.program.contract import ContractError
from repro.analysis.registry import all_program_rules, all_rules
from repro.analysis.report import findings_to_jsonl, render_table

__all__ = ["add_lint_arguments", "run_lint", "main"]

#: what a bare ``repro lint`` walks.
DEFAULT_PATHS = ("src/repro",)


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--paths",
        nargs="+",
        metavar="PATH",
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero on any non-suppressed finding",
    )
    parser.add_argument(
        "--program",
        action="store_true",
        help="also run the whole-program passes (import cycles, layer "
        "contract, async safety, error-envelope flow)",
    )
    parser.add_argument(
        "--format",
        choices=("table", "jsonl"),
        default="table",
        help="report format (default: table)",
    )
    parser.add_argument(
        "--select",
        nargs="+",
        metavar="RULE",
        help="run only these rule ids",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print registered rule ids and summaries, then exit",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also show suppressed findings in table output",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        help="repository root (default: nearest ancestor with pyproject.toml)",
    )


def _resolve(root: Path, value: str) -> Path:
    path = Path(value)
    return path if path.is_absolute() else root / value


def run_lint(args: argparse.Namespace) -> int:
    root = Path(args.root).resolve() if args.root else repo_root()
    if args.list_rules:
        for one_rule in (*all_rules(), *all_program_rules()):
            print(f"{one_rule.id}: {one_rule.summary}")
        return 0
    paths = [_resolve(root, p) for p in (args.paths or DEFAULT_PATHS)]
    try:
        result = lint_paths(
            paths,
            config=LintConfig(root=root),
            select=args.select,
            program=args.program,
        )
    except ContractError as exc:
        # Exit 2, not 1: the gate could not run, which is a different
        # failure from the gate finding problems.
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"lint: {exc.args[0]}", file=sys.stderr)
        return 2
    _emit(result, args)
    if args.strict and not result.clean:
        return 1
    return 0


def _emit(result: LintResult, args: argparse.Namespace) -> None:
    if args.format == "jsonl":
        sys.stdout.write(findings_to_jsonl(result.findings))
    else:
        print(render_table(result, verbose=args.verbose))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based determinism and contract linter for repro",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via tools/lint.py
    raise SystemExit(main())
