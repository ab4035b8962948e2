"""Seeded-violation self-tests for the layer contract.

The rule must trip on its fixture with *exact* deterministic findings —
locations, rule ids, and messages are part of the report contract, so
these assert the full tuple, not just "something fired".  The fixture
contract (``miniprog/tools/layers.json``) is violated on purpose:
``pkg.ghost`` matches no module (a dead prefix), ``pkg.stray`` matches
no layer, and ``src/pkg/alpha/a.py`` imports upward into ``high``.
"""

import json

import pytest

from repro.analysis.contract import ContractError, parse_contract
from repro.analysis.engine import LintConfig, lint_paths
from repro.analysis.report import render_table

from tests.analysis.conftest import FIXTURES, REPO_ROOT

MINIPROG = FIXTURES / "miniprog"


def _rows(result):
    return [(f.path, f.line, f.rule) for f in result.findings]


def _contract(**data):
    return json.dumps({"version": 1, **data})


class TestLayering:
    def _run(self, select=None):
        return lint_paths(
            [MINIPROG / "src"], config=LintConfig(root=MINIPROG), select=select
        )

    def test_contract_violations_exact(self):
        result = self._run(["layer-contract"])
        assert _rows(result) == [
            ("src/pkg/alpha/a.py", 4, "layer-contract"),
            ("src/pkg/stray.py", 1, "layer-contract"),
            ("tools/layers.json", 1, "layer-contract"),
        ]
        upward, stray, ghost = result.findings
        assert "imports must point downward" in upward.message
        assert "pkg.stray matches no layer prefix" in stray.message
        assert "prefix pkg.ghost matches no module" in ghost.message

    def test_full_program_report_is_byte_deterministic(self):
        first = render_table(self._run())
        assert render_table(self._run()) == first
        assert "3 findings" in first

    def test_missing_contract_is_a_contract_error(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "mod.py").write_text("X = 1\n", encoding="utf-8")
        with pytest.raises(ContractError):
            lint_paths(
                [tmp_path / "src"],
                config=LintConfig(root=tmp_path),
                select=["layer-contract"],
            )

    def test_partial_tree_is_not_judged(self):
        # Only a package linted whole is judged: one subpackage alone
        # must not read every other contract prefix as dead.
        result = lint_paths(
            [MINIPROG / "src" / "pkg" / "alpha"],
            config=LintConfig(root=MINIPROG),
        )
        assert result.findings == []


class TestContractParsing:
    def test_longest_prefix_wins(self):
        contract = parse_contract(
            _contract(
                layer=[
                    {"name": "low", "modules": ["repro.core.errors"]},
                    {"name": "high", "modules": ["repro.core"]},
                ]
            ),
            "x",
        )
        assert contract.assignment("repro.core.errors").name == "low"
        assert contract.assignment("repro.core.models").name == "high"
        assert contract.assignment("other") is None

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ('{"version": 2}', "version"),
            ("[1]", "JSON object"),
            ('{"version": 1', "layers.json"),
            (_contract(), "at least one"),
            (_contract(layer={"name": "a"}), "list of objects"),
            (_contract(layer=[{"name": "a", "modules": []}]), "non-empty"),
            (
                _contract(
                    layer=[
                        {"name": "a", "modules": ["x"]},
                        {"name": "b", "modules": ["x"]},
                    ]
                ),
                "assigned twice",
            ),
            (
                _contract(
                    layer=[{"name": "a", "modules": ["x"]}],
                    side=[{"name": "a", "modules": ["y"]}],
                ),
                "duplicate layer name",
            ),
            (
                _contract(layer=[{"name": "a", "modules": ["not a module!"]}]),
                "bad module prefix",
            ),
        ],
        ids=[
            "wrong-version",
            "not-an-object",
            "not-json",
            "no-ranked-layer",
            "kind-not-a-list",
            "empty-modules",
            "prefix-twice",
            "name-twice",
            "bad-prefix",
        ],
    )
    def test_invalid_contracts_raise(self, text, fragment):
        with pytest.raises(ContractError, match=fragment):
            parse_contract(text, "tools/layers.json")


class TestRepositoryTree:
    def test_committed_tree_is_clean_under_program_analysis(self):
        # The headline acceptance criterion: every finding across
        # src/repro, the layer contract included, was fixed, not
        # grandfathered.
        result = lint_paths(
            [REPO_ROOT / "src" / "repro"], config=LintConfig(root=REPO_ROOT)
        )
        assert result.findings == []
        assert result.files_checked > 100
