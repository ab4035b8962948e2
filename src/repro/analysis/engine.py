"""The lint engine: walk files, run rules, apply suppressions.

Determinism is a feature here, not a nicety — the report is a
regression artifact exactly like the span export: files are visited in
sorted order, findings are deduplicated and totally ordered, so the
same tree produces the same bytes
(``tests/analysis/test_report_determinism.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding
from repro.analysis.registry import (
    INVALID_SUPPRESSION,
    PARSE_ERROR,
    UNSUPPRESSABLE,
    all_rules,
    rule_ids,
)
from repro.analysis.source import SourceModule, parse_module
from repro.analysis.suppress import Suppression, parse_suppressions

__all__ = ["LintConfig", "LintResult", "Tree", "lint_paths", "repo_root"]


def repo_root(start: Optional[Path] = None) -> Path:
    """Nearest ancestor containing pyproject.toml (else the start)."""
    current = (start or Path.cwd()).resolve()
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return current


@dataclass(frozen=True)
class LintConfig:
    """Everything a run needs beyond the file list.

    The defaults are the repository's configuration — the CLI runs
    with them as they stand; the fixture tests ``dataclasses.replace``
    single fields to point a rule at a fixture tree.
    """

    root: Path = field(default_factory=repo_root)
    #: path segments in which deadline-discipline applies.
    rpc_dirs: Tuple[str, ...] = ("cluster", "proxy", "browser")


@dataclass
class Tree:
    """What a ``whole_tree`` rule sees: the entire linted tree."""

    modules: Dict[str, SourceModule]  # rel path -> parsed module, sorted
    linted_dirs: Tuple[str, ...]  # rel paths of the directories linted
    named: FrozenSet[str]  # rule ids the caller selected by name


@dataclass
class LintResult:
    """One run's verdict, pre-partitioned for the reporter."""

    findings: List[Finding] = field(default_factory=list)  # actionable
    suppressed: List[Tuple[Finding, Suppression]] = field(default_factory=list)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


def _iter_python_files(paths: Sequence[Path]) -> List[Path]:
    files: set = set()
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            files.add(path)
        elif path.is_dir():
            files.update(p.resolve() for p in path.rglob("*.py"))
    return sorted(files)


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _invalid_suppressions(
    rel: str, suppressions: Dict[int, Suppression], problems, known
) -> List[Finding]:
    for line, suppression in suppressions.items():
        # Validated against the *full* registry, not `select`: a
        # suppression that silently matched nothing would re-open the
        # gate it was written to document.
        if suppression.rule not in known:
            problems.append(
                (line, f"suppression names unknown rule id '{suppression.rule}'")
            )
        elif suppression.rule in UNSUPPRESSABLE:
            problems.append(
                (line, f"rule '{suppression.rule}' cannot be suppressed")
            )
    return [
        Finding(rel, line, 0, INVALID_SUPPRESSION, message)
        for line, message in problems
    ]


def lint_paths(
    paths: Sequence[Path],
    config: Optional[LintConfig] = None,
    select: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint every ``*.py`` under ``paths``; returns a :class:`LintResult`.

    ``select`` restricts to a subset of rule ids (tests use this to
    exercise one rule against one fixture); an unknown id raises
    ``KeyError``.  A rule that cannot run raises instead of reporting
    nothing: ``layer-contract`` raises
    :class:`~repro.analysis.contract.ContractError` for an invalid
    contract (the CLI maps it to exit code 2, distinct from findings).
    """
    config = config or LintConfig()
    select = None if select is None else list(select)
    rules = all_rules(select)
    paths = [path.resolve() for path in paths]
    known = set(rule_ids())
    result = LintResult()
    found: List[Finding] = []
    modules: Dict[str, SourceModule] = {}
    suppressions: Dict[str, Dict[int, Suppression]] = {}
    for path in _iter_python_files(paths):
        rel = _relpath(path, config.root)
        result.files_checked += 1
        try:
            module = parse_module(path, rel)
        except SyntaxError as exc:
            found.append(
                Finding(
                    rel,
                    int(exc.lineno or 1),
                    int(exc.offset or 0),
                    PARSE_ERROR,
                    f"file does not parse: {exc.msg}",
                )
            )
            continue
        modules[rel] = module
        suppressions[rel], problems = parse_suppressions(module.lines)
        found.extend(
            _invalid_suppressions(rel, suppressions[rel], problems, known)
        )
    tree = Tree(
        modules=modules,
        linted_dirs=tuple(
            _relpath(path, config.root) for path in paths if path.is_dir()
        ),
        named=frozenset(select or ()),
    )
    for one_rule in rules:
        if one_rule.whole_tree:
            found.extend(one_rule.check(tree, config))
        else:
            for module in modules.values():
                found.extend(one_rule.check(module, config))
    for finding in sorted(set(found), key=Finding.sort_key):
        suppression = _matching_suppression(
            suppressions.get(finding.path, {}), finding
        )
        if suppression is None:
            result.findings.append(finding)
        else:
            result.suppressed.append((finding, suppression))
    return result


def _matching_suppression(
    suppressions: Dict[int, Suppression], finding: Finding
) -> Optional[Suppression]:
    if finding.rule in UNSUPPRESSABLE:
        return None
    for line in (finding.line, finding.line - 1):
        suppression = suppressions.get(line)
        if suppression is not None and suppression.rule == finding.rule:
            return suppression
    return None
