#!/usr/bin/env python3
"""Docs health checks: intra-repo links + metric-name drift.

Run from anywhere inside the repository:

    python tools/check_docs.py

Seven checks, all exact:

1. **Links** — every relative markdown link in the repo's ``*.md``
   files must resolve to a file (or directory) that exists. External
   links (``http(s)://``, ``mailto:``) and pure ``#fragment`` links
   are skipped; a ``path#fragment`` link is checked for the path part.
2. **Metric drift** — the union of metric names documented in
   ``docs/observability.md`` must equal the union of names emitted in
   ``src/`` (``obs.counter("...")`` / ``gauge`` / ``histogram`` /
   ``read.note("...")`` call sites). Either direction of drift fails:
   an undocumented metric is invisible to operators, a
   documented-but-gone metric is a lie.
3. **Lint-rule drift** — the union of rule ids documented in
   ``docs/lint.md``'s rule table must equal the union of ``@rule(...)``
   registrations under ``src/repro/analysis/``. Either direction
   fails: an undocumented rule fails CI with no reference to point at,
   a documented-but-gone rule promises a check nobody runs.
4. **Perf-case drift** — the case ids tabled in ``docs/perf.md`` must
   equal the case names in the committed ``BENCH_hotpaths.json``.
   Either direction fails: an undocumented case gates CI with no
   reference, a documented-but-gone case promises a measurement
   nobody takes.
5. **Route drift** — the ``METHOD /path`` pairs in ``docs/api.md``'s
   endpoint table must equal the ``Route("METHOD", "/path", ...)``
   registry in ``src/repro/service/routes.py``. Either direction
   fails: a served-but-undocumented endpoint is an API nobody can
   call responsibly, a documented-but-unrouted one is a 404 promised
   as a feature.
6. **Layer drift** — the layer table in ``docs/architecture.md`` must
   equal the committed contract in ``tools/layers.json``: same layers,
   same order (order *is* rank), same kinds, same module prefixes.
   Either direction fails: the rendered contract is what reviewers
   read, the JSON is what the lint gate enforces, and they must be
   the same document.
7. **Knob drift** — the names opening the rows of ``docs/runbook.md``'s
   "Tuning knobs" table must equal the fields of ``ClusterConfig`` in
   ``src/repro/cluster/frontend.py`` (read with ``ast``, so this script
   needs no PYTHONPATH). Either direction fails: an untabled field is a
   setting operators cannot find, a tabled non-field is advice to turn
   a knob that does not exist.

Exit status 0 on success, 1 with a per-problem report otherwise.
"""

from __future__ import annotations

import ast
import json
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Markdown files checked for links (globs relative to the repo root).
DOC_GLOBS = ("*.md", "docs/*.md", "benchmarks/*.md", "examples/*.md")

#: ``[text](target)`` — good enough for the plain links these docs use.
#: Image embeds (``![alt](...)``) are skipped: the auto-extracted paper
#: dumps reference figures that were never vendored.
LINK_RE = re.compile(r"(?<!!)\[[^\]]*\]\(([^)\s]+)\)")

#: An emission site: ``.counter("name"`` etc. on an obs/registry object,
#: or ``.note("name"`` — an operation object's count-it-everywhere
#: method (``repro.cluster.reads``), which takes the counter's name first.
EMIT_RE = re.compile(r"\.(?:counter|gauge|histogram|note)\(\s*\"([a-z_]+)\"")

#: A documented metric: a backticked name in a table row, e.g.
#: ``| `frontend_queries_total` | counter | ...`` (labels stripped).
DOC_METRIC_RE = re.compile(r"^\|\s*`([a-z_]+)(?:\{[^}]*\})?`\s*\|")

#: A lint-rule registration: ``@rule(<first-arg>,`` in the analysis
#: package (matched textually, so this script needs no PYTHONPATH).
#: The first argument is either a string literal or a module constant
#: (``RULE_ID``, ``PARSE_ERROR``) resolved via RULE_CONST_RE.
RULE_REG_RE = re.compile(r"@rule\(\s*(\"[a-z][a-z0-9-]*\"|[A-Z_]+)\s*,")

#: A rule-id constant: ``RULE_ID = "obs-purity"`` and friends.
RULE_CONST_RE = re.compile(r"^([A-Z_]+)\s*=\s*\"([a-z][a-z0-9-]*)\"", re.M)

#: A documented lint rule: the backticked id opening a table row in
#: ``docs/lint.md``, e.g. ``| `obs-purity` | ... |``.
DOC_RULE_RE = re.compile(r"^\|\s*`([a-z][a-z0-9-]*)`\s*\|")

#: A documented perf case: the backticked id opening a table row in
#: ``docs/perf.md``, e.g. ``| `bloom_batch_membership` | ... |``.
DOC_CASE_RE = re.compile(r"^\|\s*`([a-z][a-z0-9_]*)`\s*\|")

#: A served route: ``Route("GET", "/bloom", ...)`` in the registry
#: (matched textually, so this script needs no PYTHONPATH).
ROUTE_REG_RE = re.compile(r"Route\(\s*\"([A-Z]+)\",\s*\"(/[^\"]*)\"")

#: A documented endpoint: a table row opening with the backticked
#: method then the backticked path, e.g. ``| `GET` | `/bloom` | ...``.
DOC_ROUTE_RE = re.compile(r"^\|\s*`([A-Z]+)`\s*\|\s*`(/[^`]*)`\s*\|")

#: A documented layer: a table row in ``docs/architecture.md``'s layer
#: table, e.g. ``| 0 | `base` | layer | `repro.crypto`, `repro.filters` |``
#: (side/entry rows use ``–`` in the rank column).
DOC_LAYER_RE = re.compile(
    r"^\|\s*(?:[0-9]+|–)\s*\|\s*`([a-z][a-z0-9_-]*)`\s*"
    r"\|\s*(layer|side|entry)\s*\|\s*(.*?)\s*\|$"
)


#: A knob row in ``docs/runbook.md``: one or more backticked field names,
#: ``/``-separated, in the first cell, e.g. ``| `shed_rate` / `shed_burst` | ...``.
DOC_KNOB_RE = re.compile(r"^\|\s*(`[a-z_]+`(?:\s*/\s*`[a-z_]+`)*)\s*\|")


def _doc_files() -> list[Path]:
    files: list[Path] = []
    for glob in DOC_GLOBS:
        files.extend(sorted(REPO.glob(glob)))
    return files


def check_links() -> list[str]:
    problems: list[str] = []
    for doc in _doc_files():
        text = doc.read_text(encoding="utf-8")
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            if not path:  # pure fragment
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                problems.append(
                    f"{doc.relative_to(REPO)}: broken link -> {target}"
                )
    return problems


def emitted_metrics() -> set[str]:
    names: set[str] = set()
    for source in sorted((REPO / "src").rglob("*.py")):
        if source.parent.name == "obs":
            continue  # the layer itself, not an instrumentation site
        for match in EMIT_RE.finditer(source.read_text(encoding="utf-8")):
            names.add(match.group(1))
    return names


def documented_metrics() -> set[str]:
    doc = REPO / "docs" / "observability.md"
    names: set[str] = set()
    for line in doc.read_text(encoding="utf-8").splitlines():
        match = DOC_METRIC_RE.match(line.strip())
        if match:
            names.add(match.group(1))
    return names


def check_metric_drift() -> list[str]:
    emitted = emitted_metrics()
    documented = documented_metrics()
    problems = [
        f"docs/observability.md: emitted in src/ but not documented: {name}"
        for name in sorted(emitted - documented)
    ]
    problems.extend(
        f"docs/observability.md: documented but not emitted in src/: {name}"
        for name in sorted(documented - emitted)
    )
    if not emitted:
        problems.append("found no metric emission sites in src/ (regex rot?)")
    return problems


def registered_rules() -> set[str]:
    sources = {
        source: source.read_text(encoding="utf-8")
        for source in sorted(
            (REPO / "src" / "repro" / "analysis").rglob("*.py")
        )
    }
    # Constants are resolved per file first (each rule module has its
    # own RULE_ID), then across the package (registry constants used in
    # other modules).
    global_consts: dict[str, str] = {}
    local_consts: dict[Path, dict[str, str]] = {}
    for source, text in sources.items():
        local = dict(RULE_CONST_RE.findall(text))
        local_consts[source] = local
        global_consts.update(local)
    names: set[str] = set()
    for source, text in sources.items():
        for match in RULE_REG_RE.finditer(text):
            arg = match.group(1)
            if arg.startswith('"'):
                names.add(arg.strip('"'))
            else:
                resolved = local_consts[source].get(arg) or global_consts.get(arg)
                if resolved is not None:
                    names.add(resolved)
    return names


def documented_rules() -> set[str]:
    doc = REPO / "docs" / "lint.md"
    text = doc.read_text(encoding="utf-8")
    section = text.partition("## Rules")[2].partition("\n## ")[0]
    names: set[str] = set()
    for line in section.splitlines():
        match = DOC_RULE_RE.match(line.strip())
        if match:
            names.add(match.group(1))
    return names


def check_rule_drift() -> list[str]:
    registered = registered_rules()
    documented = documented_rules()
    problems = [
        f"docs/lint.md: registered in repro.analysis but not documented: {name}"
        for name in sorted(registered - documented)
    ]
    problems.extend(
        f"docs/lint.md: documented but not registered in repro.analysis: {name}"
        for name in sorted(documented - registered)
    )
    if not registered:
        problems.append(
            "found no @rule registrations in src/repro/analysis (regex rot?)"
        )
    return problems


def benched_cases() -> set[str]:
    report = REPO / "BENCH_hotpaths.json"
    if not report.exists():
        return set()
    data = json.loads(report.read_text(encoding="utf-8"))
    return set(data.get("cases", {}))


def documented_cases() -> set[str]:
    doc = REPO / "docs" / "perf.md"
    names: set[str] = set()
    for line in doc.read_text(encoding="utf-8").splitlines():
        match = DOC_CASE_RE.match(line.strip())
        if match:
            names.add(match.group(1))
    return names


def check_perf_case_drift() -> list[str]:
    benched = benched_cases()
    documented = documented_cases()
    problems = [
        f"docs/perf.md: in BENCH_hotpaths.json but not documented: {name}"
        for name in sorted(benched - documented)
    ]
    problems.extend(
        f"docs/perf.md: documented but absent from BENCH_hotpaths.json: {name}"
        for name in sorted(documented - benched)
    )
    if not benched:
        problems.append(
            "BENCH_hotpaths.json missing or empty "
            "(run `python -m repro perf` and commit the report)"
        )
    return problems


def served_routes() -> set[tuple[str, str]]:
    registry = REPO / "src" / "repro" / "service" / "routes.py"
    if not registry.exists():
        return set()
    return set(ROUTE_REG_RE.findall(registry.read_text(encoding="utf-8")))


def documented_routes() -> set[tuple[str, str]]:
    doc = REPO / "docs" / "api.md"
    if not doc.exists():
        return set()
    routes: set[tuple[str, str]] = set()
    for line in doc.read_text(encoding="utf-8").splitlines():
        match = DOC_ROUTE_RE.match(line.strip())
        if match:
            routes.add((match.group(1), match.group(2)))
    return routes


def check_route_drift() -> list[str]:
    served = served_routes()
    documented = documented_routes()
    problems = [
        f"docs/api.md: served by repro.service but not documented: "
        f"{method} {path}"
        for method, path in sorted(served - documented)
    ]
    problems.extend(
        f"docs/api.md: documented but not in the route registry: "
        f"{method} {path}"
        for method, path in sorted(documented - served)
    )
    if not served:
        problems.append(
            "found no Route(...) registrations in "
            "src/repro/service/routes.py (regex rot?)"
        )
    return problems


def contract_layers() -> list[tuple[str, str, tuple[str, ...]]]:
    """``(kind, name, prefixes)`` per entry, in rank order: every
    ``layer`` in list order, then ``side``, then ``entry``."""
    contract = REPO / "tools" / "layers.json"
    if not contract.exists():
        return []
    data = json.loads(contract.read_text(encoding="utf-8"))
    return [
        (kind, entry["name"], tuple(entry["modules"]))
        for kind in ("layer", "side", "entry")
        for entry in data.get(kind, [])
    ]


def documented_layers() -> list[tuple[str, str, tuple[str, ...]]]:
    doc = REPO / "docs" / "architecture.md"
    if not doc.exists():
        return []
    rows: list[tuple[str, str, tuple[str, ...]]] = []
    for line in doc.read_text(encoding="utf-8").splitlines():
        match = DOC_LAYER_RE.match(line.strip())
        if match:
            name, kind, cell = match.groups()
            prefixes = tuple(
                re.findall(r"`([A-Za-z_][A-Za-z0-9_.]*)`", cell)
            )
            rows.append((kind, name, prefixes))
    return rows


def check_layer_drift() -> list[str]:
    contract = contract_layers()
    documented = documented_layers()
    problems: list[str] = []
    if not contract:
        return ["found no layers in tools/layers.json"]
    if not documented:
        return [
            "docs/architecture.md: no layer-contract table rows "
            "(expected one per tools/layers.json entry)"
        ]
    # Order matters: position in layers.json is the rank the lint gate
    # enforces, so the rendered table must list entries in the same order.
    for index, (want, got) in enumerate(zip(contract, documented)):
        if want != got:
            problems.append(
                f"docs/architecture.md: layer table row {index} is "
                f"{got!r} but tools/layers.json says {want!r}"
            )
    for kind, name, _ in contract[len(documented):]:
        problems.append(
            f"docs/architecture.md: {kind} {name!r} from "
            "tools/layers.json is missing from the layer table"
        )
    for kind, name, _ in documented[len(contract):]:
        problems.append(
            f"docs/architecture.md: layer table row {kind} {name!r} "
            "has no matching entry in tools/layers.json"
        )
    return problems


def config_fields() -> set[str]:
    source = REPO / "src" / "repro" / "cluster" / "frontend.py"
    if not source.exists():
        return set()
    tree = ast.parse(source.read_text(encoding="utf-8"))
    return {
        item.target.id
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "ClusterConfig"
        for item in node.body
        if isinstance(item, ast.AnnAssign)
    }


def documented_knobs() -> set[str]:
    doc = REPO / "docs" / "runbook.md"
    if not doc.exists():
        return set()
    text = doc.read_text(encoding="utf-8")
    section = text.partition("## Tuning knobs")[2].partition("\n## ")[0]
    knobs: set[str] = set()
    for line in section.splitlines():
        match = DOC_KNOB_RE.match(line.strip())
        if match:
            knobs.update(re.findall(r"`([a-z_]+)`", match.group(1)))
    return knobs


def check_knob_drift() -> list[str]:
    fields = config_fields()
    documented = documented_knobs()
    problems = [
        f"docs/runbook.md: ClusterConfig.{name} is not in the knob table"
        for name in sorted(fields - documented)
    ]
    problems.extend(
        f"docs/runbook.md: knob table row `{name}` is not a ClusterConfig field"
        for name in sorted(documented - fields)
    )
    if not fields:
        problems.append(
            "found no ClusterConfig fields in src/repro/cluster/frontend.py"
        )
    return problems


def main() -> int:
    problems = (
        check_links()
        + check_metric_drift()
        + check_rule_drift()
        + check_perf_case_drift()
        + check_route_drift()
        + check_layer_drift()
        + check_knob_drift()
    )
    for problem in problems:
        print(f"FAIL {problem}")
    docs = len(_doc_files())
    if problems:
        print(f"docs check: {len(problems)} problem(s) across {docs} files")
        return 1
    print(
        f"docs check: OK — {docs} markdown files, "
        f"{len(documented_metrics())} metrics, "
        f"{len(documented_rules())} lint rules, "
        f"{len(documented_cases())} perf cases, "
        f"{len(documented_routes())} API routes, "
        f"{len(documented_layers())} contract layers and "
        f"{len(documented_knobs())} config knobs in sync"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
