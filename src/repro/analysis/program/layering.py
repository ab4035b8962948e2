"""Pass 1: import-graph cycles and the layer contract.

``import-cycle`` proves the module graph is a DAG at import time.
Cycles are computed over import-time edges only (lazy function-scope
imports cannot deadlock module init; typing-only imports never run),
via an iterative Tarjan SCC made deterministic by sorting nodes and
adjacency — the same graph yields the same findings byte-for-byte.

``layer-contract`` enforces ``tools/layers.toml``: every module must
match a contract prefix, every prefix must own at least one module
(dead contract entries rot silently otherwise), and every runtime
import — including lazy ones, which are real coupling even if they
dodge init — must point downward or sideways in the ranked order,
never into a side harness from production code, and never into an
entry module from anywhere but entry.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.analysis.findings import Finding
from repro.analysis.program.contract import ENTRY_KIND, SIDE_KIND
from repro.analysis.registry import program_rule

CYCLE_RULE_ID = "import-cycle"
LAYER_RULE_ID = "layer-contract"


def _strongly_connected(adjacency: Dict[str, List[str]]) -> List[List[str]]:
    """Tarjan SCC, iterative, deterministic: nodes and neighbors are
    visited in sorted order, so component discovery order is fixed."""
    index_of: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    stack: List[str] = []
    components: List[List[str]] = []
    counter = [0]

    def visit(root: str) -> None:
        work = [(root, iter(adjacency.get(root, ())))]
        index_of[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, neighbors = work[-1]
            advanced = False
            for nxt in neighbors:
                if nxt not in index_of:
                    index_of[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack[nxt] = True
                    work.append((nxt, iter(adjacency.get(nxt, ()))))
                    advanced = True
                    break
                if on_stack.get(nxt):
                    low[node] = min(low[node], index_of[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))

    for node in sorted(adjacency):
        if node not in index_of:
            visit(node)
    return components


def _cycle_path(component: List[str], adjacency: Dict[str, List[str]]) -> str:
    """A concrete witness walk through the component, for the message."""
    members = set(component)
    start = component[0]  # lexicographically smallest (pre-sorted)
    path = [start]
    seen = {start}
    node = start
    while True:
        nxt = next(
            (n for n in adjacency.get(node, ()) if n in members), None
        )
        if nxt is None or nxt == start or nxt in seen:
            path.append(nxt if nxt is not None else start)
            break
        path.append(nxt)
        seen.add(nxt)
        node = nxt
    return " -> ".join(path)


@program_rule(
    CYCLE_RULE_ID,
    "the repro.* import graph must be acyclic at import time: no "
    "module cycle over top-level, non-typing imports",
)
def check_cycles(context, config) -> Iterator[Finding]:
    graph = context.graph
    adjacency = graph.successors(graph.import_time_edges())
    for component in _strongly_connected(adjacency):
        is_cycle = len(component) > 1 or component[0] in adjacency.get(
            component[0], ()
        )
        if not is_cycle:
            continue
        anchor = component[0]
        anchor_rel = graph.modules[anchor]
        members = set(component)
        edge = min(
            (
                e
                for e in graph.import_time_edges()
                if e.src == anchor and e.dst in members
            ),
            key=lambda e: (e.line, e.col, e.dst),
        )
        yield Finding(
            path=anchor_rel,
            line=edge.line,
            col=edge.col,
            rule=CYCLE_RULE_ID,
            message=(
                f"import cycle of {len(component)} module(s): "
                f"{_cycle_path(component, adjacency)}"
            ),
        )


@program_rule(
    LAYER_RULE_ID,
    "every module must match a layer in tools/layers.toml, every layer "
    "prefix must be live, and runtime imports may only point downward "
    "(side harnesses and entry modules are import-protected)",
)
def check_layers(context, config) -> Iterator[Finding]:
    contract = context.contract
    if contract is None:  # layering deselected or contract not loaded
        return
    graph = context.graph
    module_names = sorted(graph.modules)
    # Every module must belong to some declared layer.
    assignments = {}
    for name in module_names:
        layer = contract.assignment(name)
        if layer is None:
            yield Finding(
                path=graph.modules[name],
                line=1,
                col=0,
                rule=LAYER_RULE_ID,
                message=(
                    f"module {name} matches no layer prefix in "
                    f"{contract.path}; assign it a layer"
                ),
            )
        else:
            assignments[name] = layer
    # Every contract prefix must own at least one real module.
    live = contract.matched_prefixes(module_names)
    for layer in contract.layers:
        for prefix in layer.modules:
            if prefix not in live:
                yield Finding(
                    path=contract.path,
                    line=1,
                    col=0,
                    rule=LAYER_RULE_ID,
                    message=(
                        f"layer {layer.name!r} prefix {prefix} matches no "
                        "module; delete it or fix the spelling"
                    ),
                )
    # Edge direction: runtime edges (lazy included, typing-only exempt).
    for edge in graph.runtime_edges():
        src_layer = assignments.get(edge.src)
        dst_layer = assignments.get(edge.dst)
        if src_layer is None or dst_layer is None:
            continue  # already reported as unmatched
        if src_layer.kind in (SIDE_KIND, ENTRY_KIND):
            continue  # harnesses and entrypoints may import anything
        if dst_layer.kind == SIDE_KIND:
            yield Finding(
                path=edge.path,
                line=edge.line,
                col=edge.col,
                rule=LAYER_RULE_ID,
                message=(
                    f"{edge.src} (layer {src_layer.name!r}) imports harness "
                    f"{edge.dst} (side layer {dst_layer.name!r}); production "
                    "code must not depend on a harness"
                ),
            )
        elif dst_layer.kind == ENTRY_KIND:
            yield Finding(
                path=edge.path,
                line=edge.line,
                col=edge.col,
                rule=LAYER_RULE_ID,
                message=(
                    f"{edge.src} (layer {src_layer.name!r}) imports entry "
                    f"module {edge.dst}; entrypoints are not importable — "
                    "if this is a new package, assign it a layer in "
                    f"{contract.path}"
                ),
            )
        elif dst_layer.rank > src_layer.rank:
            yield Finding(
                path=edge.path,
                line=edge.line,
                col=edge.col,
                rule=LAYER_RULE_ID,
                message=(
                    f"{edge.src} (layer {src_layer.name!r}, rank "
                    f"{src_layer.rank}) imports {edge.dst} (layer "
                    f"{dst_layer.name!r}, rank {dst_layer.rank}); imports "
                    "must point downward — declare the edge in "
                    f"{contract.path} by reordering layers or move the code"
                ),
            )
