"""obs-purity: observability is nullable and must stay side-channel.

The ``obs=`` hook threaded through extension → proxy → frontend →
shards is ``None`` unless a run opts into instrumentation, and E20's
"0.00% sim-time overhead" claim depends on two invariants:

1. **Guarded** — every call on a nullable handle (``self.obs`` /
   ``obs``) happens under a ``None`` check: an enclosing
   ``if ... obs ...:`` test, an ``obs and obs.f()`` short-circuit, or
   an earlier ``if ... obs is None: return`` in the same block chain.
2. **Pure** — the *value* of an obs call must never steer the program:
   not in an ``if``/``while``/ternary test, a comparison, a boolean
   expression, an ``assert``, a ``return``, or an argument to
   non-observability code.  Storing a span handle (``span =
   obs.start(...)``) is allowed — ending a span requires keeping it —
   and feeding one obs call's value to another *syntactic* obs chain
   (``obs.histogram(name).observe(obs.now())``) stays inside the side
   channel.  The analysis is lexical: an obs value passed to a call on
   a plain variable is flagged even if that variable happens to hold
   an obs object — keep the chain visible.

Modules under an ``obs`` path segment are exempt: the layer itself
constructs the handle and is definitionally non-null there.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.findings import Finding
from repro.analysis.registry import rule
from repro.analysis.source import block_terminates

RULE_ID = "obs-purity"


def _is_handle(node: ast.AST) -> bool:
    if isinstance(node, ast.Name) and node.id == "obs":
        return True
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "obs"
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _contains_handle(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    return any(_is_handle(child) for child in ast.walk(node))


def _is_obs_chain(node: ast.AST) -> bool:
    """Does this call's function chain bottom out at an obs handle?

    True for ``self.obs.counter(...)`` and for calls chained off one,
    e.g. ``self.obs.histogram(...).observe(...)``.
    """
    while True:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if not isinstance(func, ast.Attribute):
            return False
        if _is_handle(func.value):
            return True
        node = func.value


def _obs_calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and _is_handle(node.func.value)
        ):
            yield node


def _in_subtree(node: ast.AST, root: Optional[ast.AST]) -> bool:
    if root is None:
        return False
    return any(child is node for child in ast.walk(root))


def _is_guarded(module, call: ast.Call) -> bool:
    # lexical guards: an enclosing test that mentions the handle.
    for ancestor in module.ancestors(call):
        if isinstance(ancestor, (ast.If, ast.IfExp)):
            if _contains_handle(ancestor.test) and not _in_subtree(
                call, ancestor.test
            ):
                return True
        elif isinstance(ancestor, ast.BoolOp):
            try:
                index = next(
                    i
                    for i, value in enumerate(ancestor.values)
                    if _in_subtree(call, value)
                )
            except StopIteration:
                index = len(ancestor.values)
            if any(_contains_handle(v) for v in ancestor.values[:index]):
                return True
        elif isinstance(ancestor, ast.While):
            if _contains_handle(ancestor.test) and not _in_subtree(
                call, ancestor.test
            ):
                return True
    # early-return guards: `if ... obs is None: return` earlier in an
    # enclosing block (scanning stops at the function boundary).
    for stmt in module.preceding_siblings(call):
        if (
            isinstance(stmt, ast.If)
            and _contains_handle(stmt.test)
            and block_terminates(stmt.body)
        ):
            return True
    return False


#: ancestors through which an obs value may NOT flow.
_FLOW_VIOLATIONS = (
    ast.Assert,
    ast.Return,
    ast.Raise,
    ast.Compare,
)


def _flow_violation(module, call: ast.Call) -> Optional[str]:
    """Does this obs call's value leak into control flow or logic?"""
    child: ast.AST = call
    for ancestor in module.ancestors(call):
        if isinstance(ancestor, ast.Call):
            if _is_obs_chain(ancestor):
                return None  # value stays inside the obs side channel
            if child is ancestor.func:
                # `self.obs.counter(...).inc()` — the chained method
                # IS the obs call's consumer; keep climbing.
                child = ancestor
                continue
            return "is passed into non-observability code"
        if isinstance(ancestor, _FLOW_VIOLATIONS):
            return f"flows into a {type(ancestor).__name__.lower()}"
        if isinstance(ancestor, (ast.If, ast.While, ast.IfExp)):
            if _in_subtree(call, ancestor.test):
                return "gates control flow"
            return None
        if isinstance(ancestor, ast.BoolOp):
            # `obs and obs.f()` guard idiom is fine; an obs call as the
            # *first* operand (or with no guard before it) is logic.
            index = next(
                (
                    i
                    for i, value in enumerate(ancestor.values)
                    if _in_subtree(call, value)
                ),
                0,
            )
            if index == 0 or not any(
                _contains_handle(v) for v in ancestor.values[:index]
            ):
                return "participates in boolean logic"
            child = ancestor
            continue
        if isinstance(ancestor, ast.UnaryOp) and isinstance(
            ancestor.op, ast.Not
        ):
            return "participates in boolean logic"
        if isinstance(ancestor, ast.stmt):
            return None  # Expr / Assign / With / ... — allowed sinks
        child = ancestor
    return None


@rule(
    RULE_ID,
    "calls on the nullable obs= handle must be None-guarded, and their "
    "values must never steer control flow or escape into program state",
)
def check(module, config) -> Iterator[Finding]:
    if "obs" in module.rel_parts:
        return
    for call in _obs_calls(module.tree):
        name = f"{ast.unparse(call.func)}(...)"
        if not _is_guarded(module, call):
            yield Finding(
                path=module.rel,
                line=call.lineno,
                col=call.col_offset,
                rule=RULE_ID,
                message=(
                    f"unguarded {name}: the obs handle is nullable; "
                    "wrap in `if ... obs is not None:`"
                ),
            )
        violation = _flow_violation(module, call)
        if violation is not None:
            yield Finding(
                path=module.rel,
                line=call.lineno,
                col=call.col_offset,
                rule=RULE_ID,
                message=(
                    f"observability value from {name} {violation}; "
                    "obs must stay a write-only side channel"
                ),
            )
