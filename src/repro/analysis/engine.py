"""The lint engine: walk files, run rules, apply suppressions.

Determinism is a feature here, not a nicety — the JSONL report is a
regression artifact exactly like the span export: files are visited in
sorted order, rules run in registry order, findings are deduplicated
and totally ordered, so the same tree produces the same bytes
(``tests/analysis/test_report_determinism.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding
from repro.analysis.program.context import build_context
from repro.analysis.program.contract import LayerContract, load_contract
from repro.analysis.program.graph import build_graph
from repro.analysis.registry import (
    INVALID_SUPPRESSION,
    PARSE_ERROR,
    UNSUPPRESSABLE,
    Rule,
    all_program_rules,
    all_rules,
    known_rule_ids,
    split_select,
)
from repro.analysis.source import SourceModule, parse_module
from repro.analysis.suppress import Suppression, parse_suppressions

__all__ = ["LintConfig", "LintResult", "lint_paths", "repo_root"]

#: id of the pass that needs the committed contract loaded; kept as a
#: literal so importing the engine never imports a pass module out of
#: the package's fixed registration order.
_LAYER_RULE_ID = "layer-contract"


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
    #: rel-path fnmatch patterns fully exempt from no-wall-clock.  The
    #: perf timing shim is the single audited exemption: benchmarks
    #: exist to measure wall time, and confining the reads to one module
    #: keeps the rest of the tree greppably clock-free.
    allow_wall_clock: Tuple[str, ...] = ("src/repro/perf/timing.py",)
    #: path segments in which deadline-discipline applies.
    rpc_dirs: Tuple[str, ...] = ("cluster", "proxy", "browser")
    #: attribute names that constitute the RPC surface.
    rpc_methods: Tuple[str, ...] = ("invoke", "call")
    #: path segments in which obs-purity is skipped (the layer itself).
    obs_exempt_segments: Tuple[str, ...] = ("obs",)
    #: committed layer contract, relative to root (layer-contract pass).
    contract_path: str = "tools/layers.toml"
    #: module holding the ERROR_STATUS literal (error-envelope pass).
    envelope_registry: str = "src/repro/service/errors.py"
    #: rel-path roots whose error-kind literals the envelope pass audits.
    envelope_roots: Tuple[str, ...] = ("src/repro/service",)
    #: module whose Route(...) calls name handlers (handler-deadline pass).
    routes_module: str = "src/repro/service/routes.py"


@dataclass
class LintResult:
    """One run's verdict, pre-partitioned for the reporters."""

    findings: List[Finding] = field(default_factory=list)  # actionable
    suppressed: List[Tuple[Finding, Suppression]] = field(default_factory=list)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


def _iter_python_files(paths: Sequence[Path]) -> List[Path]:
    files: set = set()
    for path in paths:
        path = path.resolve()
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


def _check_module(
    module: SourceModule, rules: Sequence[Rule], config: LintConfig
) -> List[Finding]:
    findings: List[Finding] = []
    for one_rule in rules:
        findings.extend(one_rule.check(module, config))
    return findings


def lint_paths(
    paths: Sequence[Path],
    config: Optional[LintConfig] = None,
    select: Optional[Iterable[str]] = None,
    program: bool = False,
    contract: Optional[LayerContract] = None,
) -> LintResult:
    """Lint every ``*.py`` under ``paths``; returns a :class:`LintResult`.

    ``select`` restricts to a subset of rule ids (tests use this to
    exercise one rule against one fixture); naming a program rule in
    ``select`` runs it whether or not ``program`` is set.

    ``program=True`` additionally runs every whole-program pass over
    the same parsed modules.  ``contract`` injects a parsed
    layer contract; by default the committed one at
    ``config.contract_path`` is loaded when the layering pass runs,
    and a missing or invalid contract raises
    :class:`~repro.analysis.program.contract.ContractError` (the CLI
    maps it to exit code 2, distinct from findings).
    """
    config = config or LintConfig()
    if select is None:
        file_select, prog_select = None, (None if program else [])
    else:
        file_select, prog_select = split_select(select)
    rules = all_rules(file_select)
    program_rules = all_program_rules(prog_select)
    known_ids = known_rule_ids()
    result = LintResult()
    raw: List[Finding] = []
    modules: Dict[str, SourceModule] = {}
    suppression_maps: Dict[str, Dict[int, Suppression]] = {}
    for path in _iter_python_files(paths):
        rel = _relpath(path, config.root)
        result.files_checked += 1
        try:
            module = parse_module(path, rel)
        except SyntaxError as exc:
            raw.append(
                Finding(
                    path=rel,
                    line=int(exc.lineno or 1),
                    col=int(exc.offset or 0),
                    rule=PARSE_ERROR,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        modules[rel] = module
        suppressions, problems = parse_suppressions(module.lines)
        suppression_maps[rel] = suppressions
        for line, suppression in sorted(suppressions.items()):
            # Validated against the *full* registry, not `select`: a
            # suppression that silently matched nothing would re-open
            # the gate it was written to document.
            if suppression.rule not in known_ids:
                problems.append(
                    (
                        line,
                        f"suppression names unknown rule id "
                        f"'{suppression.rule}'",
                    )
                )
            elif suppression.rule in UNSUPPRESSABLE:
                problems.append(
                    (
                        line,
                        f"rule '{suppression.rule}' cannot be suppressed",
                    )
                )
        for line, message in sorted(problems):
            raw.append(
                Finding(
                    path=rel,
                    line=line,
                    col=0,
                    rule=INVALID_SUPPRESSION,
                    message=message,
                )
            )
        for finding in _check_module(module, rules, config):
            suppression = _matching_suppression(suppressions, finding)
            if suppression is not None:
                result.suppressed.append((finding, suppression))
            else:
                raw.append(finding)
    if program_rules:
        graph = build_graph(modules)
        if contract is None and any(
            one.id == _LAYER_RULE_ID for one in program_rules
        ):
            contract = load_contract(
                str(config.root / config.contract_path), config.contract_path
            )
        context = build_context(str(config.root), modules, graph, contract)
        for one in program_rules:
            for finding in one.check(context, config):
                suppression = _matching_suppression(
                    suppression_maps.get(finding.path, {}), finding
                )
                if suppression is not None:
                    result.suppressed.append((finding, suppression))
                else:
                    raw.append(finding)
    result.findings = sorted(set(raw), key=Finding.sort_key)
    result.suppressed.sort(key=lambda pair: pair[0].sort_key())
    return result


def _matching_suppression(
    suppressions, finding: Finding
) -> Optional[Suppression]:
    if finding.rule in UNSUPPRESSABLE:
        return None
    for line in (finding.line, finding.line - 1):
        suppression = suppressions.get(line)
        if suppression is not None and suppression.rule == finding.rule:
            return suppression
    return None
