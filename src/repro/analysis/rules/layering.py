"""layer-contract: the import graph obeys ``tools/layers.json``.

Every module must match a contract prefix, every prefix must own at
least one module (dead contract entries rot silently otherwise), and
every runtime import — including ones inside a function body, which
are real coupling even if they dodge module init — must point
downward or sideways in the ranked order, never into a side harness
from production code, and never into an entry module from anywhere
but entry.  ``TYPE_CHECKING``-guarded imports never run and are exempt.

The contract is read from ``tools/layers.json`` under the lint root.
A tree without one has nothing to judge, unless the rule was selected
by name: then, like an invalid contract, it is a ``ContractError``.
The rule judges a module only when the contract names its top-level
package and that package's directory was linted whole: linting
``examples/`` or a single subpackage neither reports the contract's
other prefixes as dead nor needs a contract of its own.

There is no separate cycle check: ranked layers only import at the
same or a lower rank, so an import cycle can never span two ranked
layers, and a cycle that breaks module init fails with an
``ImportError`` the first time either module is imported.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.contract import (
    CONTRACT_PATH,
    ENTRY_KIND,
    SIDE_KIND,
    load_contract,
)
from repro.analysis.findings import Finding
from repro.analysis.graph import build_graph, module_name_for_rel
from repro.analysis.registry import rule

RULE_ID = "layer-contract"


def _package_dir(rel: str) -> str:
    """``src/repro/cluster/ring.py`` -> ``src/repro``."""
    parts = rel.split("/")
    return "/".join(parts[: 2 if parts[0] == "src" else 1])


def _linted_whole(rel: str, linted_dirs) -> bool:
    package = _package_dir(rel)
    return any(
        d == "." or package == d or package.startswith(d + "/")
        for d in linted_dirs
    )


@rule(
    RULE_ID,
    "every module must match a layer in tools/layers.json, every layer "
    "prefix must be live, and runtime imports may only point downward "
    "(side harnesses and entry modules are import-protected)",
    whole_tree=True,
)
def check(tree, config) -> Iterator[Finding]:
    if RULE_ID not in tree.named and not (config.root / CONTRACT_PATH).exists():
        return
    contract = load_contract(config.root)
    packages = contract.packages()
    judged = {
        rel: module
        for rel, module in tree.modules.items()
        if module_name_for_rel(rel).split(".", 1)[0] in packages
        and _linted_whole(rel, tree.linted_dirs)
    }
    if not judged:
        return
    graph = build_graph(judged)

    def finding(path: str, line: int, col: int, message: str) -> Finding:
        return Finding(path, line, col, RULE_ID, message)

    # Every module must belong to some declared layer.
    assignments = {}
    for name in sorted(graph.modules):
        layer = contract.assignment(name)
        if layer is None:
            yield finding(
                graph.modules[name], 1, 0,
                f"module {name} matches no layer prefix in "
                f"{contract.path}; assign it a layer",
            )
        else:
            assignments[name] = layer
    # Every contract prefix must own at least one real module.
    live = {contract.prefix_of(name) for name in graph.modules}
    for layer in contract.layers:
        for prefix in layer.modules:
            if prefix not in live:
                yield finding(
                    contract.path, 1, 0,
                    f"layer {layer.name!r} prefix {prefix} matches no "
                    "module; delete it or fix the spelling",
                )
    # Edge direction over runtime edges (typing-only ones are exempt).
    for edge in graph.runtime_edges():
        src_layer = assignments.get(edge.src)
        dst_layer = assignments.get(edge.dst)
        if src_layer is None or dst_layer is None:
            continue  # already reported as unmatched
        if src_layer.kind in (SIDE_KIND, ENTRY_KIND):
            continue  # harnesses and entrypoints may import anything
        if dst_layer.kind == SIDE_KIND:
            message = (
                f"{edge.src} (layer {src_layer.name!r}) imports harness "
                f"{edge.dst} (side layer {dst_layer.name!r}); production "
                "code must not depend on a harness"
            )
        elif dst_layer.kind == ENTRY_KIND:
            message = (
                f"{edge.src} (layer {src_layer.name!r}) imports entry "
                f"module {edge.dst}; entrypoints are not importable — "
                "if this is a new package, assign it a layer in "
                f"{contract.path}"
            )
        elif dst_layer.rank > src_layer.rank:
            message = (
                f"{edge.src} (layer {src_layer.name!r}, rank "
                f"{src_layer.rank}) imports {edge.dst} (layer "
                f"{dst_layer.name!r}, rank {dst_layer.rank}); imports "
                "must point downward — declare the edge in "
                f"{contract.path} by reordering layers or move the code"
            )
        else:
            continue
        yield finding(edge.path, edge.line, edge.col, message)
