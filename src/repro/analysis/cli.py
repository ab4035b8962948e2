"""Command-line front end: ``python -m repro lint`` / ``tools/lint.py``.

Configuration is the defaults of
:class:`~repro.analysis.engine.LintConfig`; the default path list is
:data:`DEFAULT_PATHS` below.

Exit status: 0 when no non-suppressed finding remains, 1 when any
does (the CI gate).  Exit 2 means the run itself could not proceed —
unknown rule id, or a missing/invalid layer contract — which CI must
treat as failure, never as "no findings".
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.contract import ContractError
from repro.analysis.engine import LintConfig, lint_paths, repo_root
from repro.analysis.report import render_table

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
        "--select",
        nargs="+",
        metavar="RULE",
        help="run only these rule ids (see docs/lint.md)",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        help="repository root (default: nearest ancestor with pyproject.toml)",
    )


def run_lint(args: argparse.Namespace) -> int:
    root = Path(args.root).resolve() if args.root else repo_root()
    paths = [root / p for p in (args.paths or DEFAULT_PATHS)]
    try:
        result = lint_paths(
            paths, config=LintConfig(root=root), select=args.select
        )
    except ContractError as exc:
        # Exit 2, not 1: the gate could not run, which is a different
        # failure from the gate finding problems.
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"lint: {exc.args[0]}", file=sys.stderr)
        return 2
    print(render_table(result))
    return 0 if result.clean else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based determinism and contract linter for repro",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via tools/lint.py
    raise SystemExit(main())
