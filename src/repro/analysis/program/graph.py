"""The whole-program import graph: modules and edges.

One :class:`ImportGraph` per analyzed tree.  Construction is a pure
function of the parsed modules, independent of dict iteration order
(``tests/analysis/test_program_graph.py`` holds this with hypothesis).

Edge semantics, chosen to match how the repo actually imports:

* ``from repro.crypto import rsa`` resolves to the *submodule*
  ``repro.crypto.rsa``, not the package ``__init__`` — re-export
  convenience must not read as an architectural cycle.
* An import inside a function body is ``lazy``: it cannot participate
  in an import-time cycle (Python resolves it at call time), but it is
  still a real dependency the layer contract sees.
* An import under ``if TYPE_CHECKING:`` is ``typing_only``: no runtime
  coupling at all, exempt from both the cycle and the layering pass.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.analysis.source import SourceModule, dotted_name

__all__ = [
    "ImportEdge",
    "ImportGraph",
    "module_name_for_rel",
    "build_graph",
]


def module_name_for_rel(rel: str) -> str:
    """Dotted module name for a repo-relative path.

    A leading ``src/`` segment is the conventional layout prefix and
    is stripped; ``pkg/__init__.py`` names the package itself.
    """
    parts = list(rel.split("/"))
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass(frozen=True)
class ImportEdge:
    """One import site: ``src`` imports ``dst`` at a source location."""

    src: str  # dotted module name
    dst: str  # dotted module name
    path: str  # rel path of the importing file (finding anchor)
    line: int
    col: int
    lazy: bool  # inside a function body: resolved at call time
    typing_only: bool  # under `if TYPE_CHECKING:`: no runtime coupling

    def sort_key(self) -> Tuple[str, str, int, int]:
        return (self.src, self.dst, self.line, self.col)


@dataclass
class ImportGraph:
    """Modules + deduplicated, totally ordered import edges."""

    modules: Dict[str, str] = field(default_factory=dict)  # name -> rel path
    edges: List[ImportEdge] = field(default_factory=list)  # sorted

    def runtime_edges(self) -> List[ImportEdge]:
        """Edges with runtime coupling (everything but typing-only)."""
        return [e for e in self.edges if not e.typing_only]

    def import_time_edges(self) -> List[ImportEdge]:
        """Edges resolved at import time — the cycle-relevant subset."""
        return [e for e in self.edges if not e.typing_only and not e.lazy]

    def successors(
        self, edges: Iterable[ImportEdge]
    ) -> Dict[str, List[str]]:
        """Deterministic adjacency (sorted, deduplicated) over ``edges``."""
        adjacency: Dict[str, set] = {name: set() for name in self.modules}
        for edge in edges:
            if edge.src in adjacency and edge.dst in self.modules:
                adjacency[edge.src].add(edge.dst)
        return {name: sorted(dsts) for name, dsts in adjacency.items()}

def _is_typing_guard(test: ast.AST) -> bool:
    parts = dotted_name(test)
    return parts is not None and parts[-1] == "TYPE_CHECKING"


def _edge_flags(module: SourceModule, node: ast.AST) -> Tuple[bool, bool]:
    lazy = False
    typing_only = False
    child: ast.AST = node
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lazy = True
        if (
            isinstance(ancestor, ast.If)
            and child in ancestor.body
            and _is_typing_guard(ancestor.test)
        ):
            typing_only = True
        child = ancestor
    return lazy, typing_only


def _resolve_from_target(
    base: str, alias: str, known: Mapping[str, str]
) -> Optional[str]:
    """``from base import alias`` → the submodule if one exists, else
    the package/module ``base`` itself."""
    candidate = f"{base}.{alias}"
    if candidate in known:
        return candidate
    if base in known:
        return base
    return None


def _relative_base(name: str, is_package: bool, node: ast.ImportFrom) -> str:
    parts = name.split(".") if name else []
    anchor = parts if is_package else parts[:-1]
    hops = node.level - 1
    if hops:
        anchor = anchor[: len(anchor) - hops] if hops <= len(anchor) else []
    if node.module:
        anchor = anchor + node.module.split(".")
    return ".".join(anchor)


def build_graph(modules: Mapping[str, SourceModule]) -> ImportGraph:
    """Build the graph from parsed modules (keyed by rel path).

    Deterministic by construction: modules are visited in sorted rel
    order, edges are deduplicated and totally ordered, and nothing
    depends on the mapping's iteration order.
    """
    names: Dict[str, str] = {}
    for rel in sorted(modules):
        names[module_name_for_rel(rel)] = rel
    raw: set = set()
    for rel in sorted(modules):
        module = modules[rel]
        src = module_name_for_rel(rel)
        is_package = rel.endswith("__init__.py")
        for node in ast.walk(module.tree):
            targets: List[str] = []
            if isinstance(node, ast.Import):
                targets.extend(
                    alias.name for alias in node.names if alias.name in names
                )
            elif isinstance(node, ast.ImportFrom):
                base = (
                    _relative_base(src, is_package, node)
                    if node.level
                    else (node.module or "")
                )
                if not base:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        if base in names:
                            targets.append(base)
                        continue
                    resolved = _resolve_from_target(base, alias.name, names)
                    if resolved is not None:
                        targets.append(resolved)
            else:
                continue
            if not targets:
                continue
            lazy, typing_only = _edge_flags(module, node)
            for dst in targets:
                if dst == src:
                    continue
                raw.add(
                    ImportEdge(
                        src=src,
                        dst=dst,
                        path=rel,
                        line=node.lineno,
                        col=node.col_offset,
                        lazy=lazy,
                        typing_only=typing_only,
                    )
                )
    return ImportGraph(
        modules=names,
        edges=sorted(raw, key=ImportEdge.sort_key),
    )
