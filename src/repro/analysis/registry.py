"""The pluggable rule registry.

A rule is a pure function ``check(module, config) -> iterable of
Finding`` registered under a stable kebab-case id.  Registration order
is import order and import order is fixed
(:mod:`repro.analysis.rules` imports each rule module explicitly), so
the registry — and therefore report ordering — is deterministic.

Two ids are *engine-emitted*: ``parse-error`` (a file that does not
parse) and ``invalid-suppression`` (a malformed ``allow`` directive).
They are registered here like any other rule so the docs drift check
(`tools/check_docs.py`) sees one authoritative id list, but their
check functions are no-ops — the engine raises them itself, and
neither can be suppressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from repro.analysis.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import LintConfig
    from repro.analysis.program.context import ProgramContext
    from repro.analysis.source import SourceModule

__all__ = [
    "Rule",
    "ProgramRule",
    "rule",
    "program_rule",
    "all_rules",
    "all_program_rules",
    "rule_ids",
    "program_rule_ids",
    "known_rule_ids",
    "split_select",
    "PARSE_ERROR",
    "INVALID_SUPPRESSION",
    "UNSUPPRESSABLE",
]

PARSE_ERROR = "parse-error"
INVALID_SUPPRESSION = "invalid-suppression"

#: Findings about the lint mechanism itself cannot be allowed away.
UNSUPPRESSABLE = frozenset({PARSE_ERROR, INVALID_SUPPRESSION})

CheckFn = Callable[["SourceModule", "LintConfig"], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """One registered rule: identity, one-line rationale, checker."""

    id: str
    summary: str
    check: CheckFn


_REGISTRY: Dict[str, Rule] = {}


def rule(rule_id: str, summary: str) -> Callable[[CheckFn], CheckFn]:
    """Register ``check`` under ``rule_id`` (decorator)."""

    def _register(check: CheckFn) -> CheckFn:
        if rule_id in _REGISTRY:
            raise ValueError(f"rule {rule_id!r} registered twice")
        _REGISTRY[rule_id] = Rule(id=rule_id, summary=summary, check=check)
        return check

    return _register


def all_rules(select: Optional[Iterable[str]] = None) -> List[Rule]:
    """Registered rules in registration order, optionally filtered."""
    import repro.analysis.rules  # noqa: F401  - registration side effect

    rules = list(_REGISTRY.values())
    if select is None:
        return rules
    wanted = set(select)
    unknown = wanted - set(_REGISTRY)
    if unknown:
        raise KeyError(f"unknown rule id(s): {sorted(unknown)}")
    return [r for r in rules if r.id in wanted]


def rule_ids() -> List[str]:
    return [r.id for r in all_rules()]


# -- whole-program rules -------------------------------------------------------------
#
# A program rule sees the *entire* analyzed tree at once — the parsed
# modules, the import graph, and the layer contract — instead of one
# module at a time.  Same shape as per-file rules otherwise: pure
# check functions registered under stable kebab-case ids, registration
# order fixed by :mod:`repro.analysis.program`'s import order.

ProgramCheckFn = Callable[["ProgramContext", "LintConfig"], Iterable[Finding]]


@dataclass(frozen=True)
class ProgramRule:
    """One registered whole-program rule."""

    id: str
    summary: str
    check: ProgramCheckFn


_PROGRAM_REGISTRY: Dict[str, ProgramRule] = {}


def program_rule(rule_id: str, summary: str) -> Callable[[ProgramCheckFn], ProgramCheckFn]:
    """Register a whole-program ``check`` under ``rule_id`` (decorator)."""

    def _register(check: ProgramCheckFn) -> ProgramCheckFn:
        if rule_id in _PROGRAM_REGISTRY or rule_id in _REGISTRY:
            raise ValueError(f"rule {rule_id!r} registered twice")
        _PROGRAM_REGISTRY[rule_id] = ProgramRule(
            id=rule_id, summary=summary, check=check
        )
        return check

    return _register


def all_program_rules(select: Optional[Iterable[str]] = None) -> List[ProgramRule]:
    """Registered program rules in registration order, optionally filtered."""
    import repro.analysis.program  # noqa: F401  - registration side effect

    rules = list(_PROGRAM_REGISTRY.values())
    if select is None:
        return rules
    wanted = set(select)
    unknown = wanted - set(_PROGRAM_REGISTRY)
    if unknown:
        raise KeyError(f"unknown program rule id(s): {sorted(unknown)}")
    return [r for r in rules if r.id in wanted]


def program_rule_ids() -> List[str]:
    return [r.id for r in all_program_rules()]


def known_rule_ids() -> frozenset:
    """Every registered id, per-file and program — the suppression
    vocabulary and the ``--select`` validation set."""
    return frozenset(rule_ids()) | frozenset(program_rule_ids())


def split_select(
    select: Optional[Iterable[str]],
) -> Tuple[Optional[List[str]], Optional[List[str]]]:
    """Partition ``--select`` ids into (per-file, program) selections.

    Returns ``(None, None)`` for no selection (run everything).  A
    selection naming only one kind returns an empty list for the other
    kind, so the engine runs nothing from that registry rather than
    falling back to all of it.  Unknown ids raise ``KeyError``.
    """
    if select is None:
        return None, None
    wanted = list(select)
    file_ids = set(rule_ids())
    prog_ids = set(program_rule_ids())
    unknown = [s for s in wanted if s not in file_ids and s not in prog_ids]
    if unknown:
        raise KeyError(f"unknown rule id(s): {sorted(set(unknown))}")
    return (
        [s for s in wanted if s in file_ids],
        [s for s in wanted if s in prog_ids],
    )
