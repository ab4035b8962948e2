"""Seeded-violation self-tests for the three whole-program passes.

Each pass must trip on its fixture with *exact* deterministic
findings — locations, rule ids, and messages are part of the report
contract, so these assert the full tuple, not just "something fired".
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.engine import LintConfig, lint_paths
from repro.analysis.program.contract import (
    ContractError,
    parse_contract,
    _parse_mini_toml,
)
from repro.analysis.report import findings_to_jsonl

from tests.analysis.conftest import FIXTURES, REPO_ROOT

MINIPROG = FIXTURES / "miniprog"
BAD_ASYNC = FIXTURES / "bad_async"
ENVPROG = FIXTURES / "envprog"


def _rows(result):
    return [
        (f.path, f.line, f.rule) for f in result.findings
    ]


class TestLayering:
    def _run(self, select):
        return lint_paths(
            [MINIPROG / "src"], config=LintConfig(root=MINIPROG), select=select
        )

    def test_seeded_cycle_is_found(self):
        result = self._run(["import-cycle"])
        assert _rows(result) == [("src/pkg/alpha/a.py", 3, "import-cycle")]
        assert (
            "pkg.alpha.a -> pkg.alpha.b -> pkg.alpha.a"
            in result.findings[0].message
        )

    def test_contract_violations_exact(self):
        result = self._run(["layer-contract"])
        assert _rows(result) == [
            ("src/pkg/alpha/a.py", 4, "layer-contract"),
            ("src/pkg/stray.py", 1, "layer-contract"),
            ("tools/layers.toml", 1, "layer-contract"),
        ]
        upward, stray, ghost = result.findings
        assert "imports must point downward" in upward.message
        assert "pkg.stray matches no layer prefix" in stray.message
        assert "prefix pkg.ghost matches no module" in ghost.message

    def test_full_program_report_is_byte_deterministic(self):
        first = findings_to_jsonl(
            lint_paths(
                [MINIPROG / "src"],
                config=LintConfig(root=MINIPROG),
                program=True,
            ).findings
        )
        second = findings_to_jsonl(
            lint_paths(
                [MINIPROG / "src"],
                config=LintConfig(root=MINIPROG),
                program=True,
            ).findings
        )
        assert first == second
        assert first.count("\n") == 4  # cycle + three contract findings

    def test_missing_contract_is_a_contract_error(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "mod.py").write_text("X = 1\n", encoding="utf-8")
        with pytest.raises(ContractError):
            lint_paths(
                [tmp_path / "src"],
                config=LintConfig(root=tmp_path),
                program=True,
            )


class TestAsyncSafety:
    @pytest.fixture
    def result(self):
        config = replace(
            LintConfig(root=BAD_ASYNC), routes_module="src/svc/routes.py"
        )
        return lint_paths(
            [BAD_ASYNC / "src"],
            config=config,
            select=[
                "blocking-in-async",
                "unawaited-coroutine",
                "handler-deadline",
            ],
        )

    def test_seeded_violations_exact(self, result):
        assert _rows(result) == [
            ("src/svc/app.py", 12, "handler-deadline"),
            ("src/svc/app.py", 13, "blocking-in-async"),
            ("src/svc/app.py", 14, "blocking-in-async"),
            ("src/svc/app.py", 15, "unawaited-coroutine"),
            ("src/svc/app.py", 16, "unawaited-coroutine"),
            ("src/svc/app.py", 33, "unawaited-coroutine"),
            ("src/svc/consumer.py", 7, "unawaited-coroutine"),
        ]

    def test_time_sleep_in_async_def_is_named(self, result):
        blocking = [
            f for f in result.findings if f.rule == "blocking-in-async"
        ]
        assert "time.sleep(...) inside async def 'handle_slow'" in (
            blocking[0].message
        )

    def test_sync_helper_and_awaited_calls_are_exempt(self, result):
        lines = {f.line for f in result.findings if f.path == "src/svc/app.py"}
        assert 37 not in lines  # time.sleep in a sync method
        assert 23 not in lines  # handle_good threads its deadline
        # writer.close() on an unknown object is never guessed at.
        assert all(
            "close" not in f.message for f in result.findings
        )

    def test_handler_without_award_is_exempt(self, result):
        assert all(
            "handle_fast" not in f.message for f in result.findings
        )


class TestEnvelopes:
    @pytest.fixture
    def result(self):
        config = replace(
            LintConfig(root=ENVPROG),
            envelope_registry="src/svc/errors.py",
            envelope_roots=("src/svc",),
        )
        return lint_paths(
            [ENVPROG / "src"], config=config, select=["error-envelope"]
        )

    def test_seeded_violations_exact(self, result):
        assert _rows(result) == [
            ("src/svc/app.py", 7, "error-envelope"),
            ("src/svc/app.py", 11, "error-envelope"),
            ("src/svc/errors.py", 5, "error-envelope"),
        ]
        unregistered, assigned, dead = result.findings
        assert "'nope'" in unregistered.message
        assert "'also-nope'" in assigned.message
        assert "'ghost' is never constructed" in dead.message

    def test_live_kind_not_reported(self, result):
        assert all("'ok'" not in f.message for f in result.findings)

    def test_registry_rot_is_reported(self, tmp_path):
        # ERROR_STATUS built dynamically: the pass must fail loudly
        # rather than silently approving everything.
        root = tmp_path
        (root / "src").mkdir()
        (root / "src" / "errors.py").write_text(
            "ERROR_STATUS = dict(ok=200)\n", encoding="utf-8"
        )
        config = replace(
            LintConfig(root=root),
            envelope_registry="src/errors.py",
            envelope_roots=("src",),
        )
        result = lint_paths(
            [root / "src"], config=config, select=["error-envelope"]
        )
        assert _rows(result) == [("src/errors.py", 1, "error-envelope")]
        assert "literal dict not found" in result.findings[0].message


class TestContractParsing:
    def test_committed_contract_parses_and_matches_minitoml(self):
        # The fallback parser and tomllib must agree on the real file.
        text = (REPO_ROOT / "tools" / "layers.toml").read_text(
            encoding="utf-8"
        )
        tomllib = pytest.importorskip("tomllib")
        assert _parse_mini_toml(text, "tools/layers.toml") == tomllib.loads(
            text
        )

    def test_fixture_contract_matches_minitoml(self):
        text = (MINIPROG / "tools" / "layers.toml").read_text(
            encoding="utf-8"
        )
        tomllib = pytest.importorskip("tomllib")
        assert _parse_mini_toml(text, "x") == tomllib.loads(text)

    def test_longest_prefix_wins(self):
        contract = parse_contract(
            'version = 1\n'
            '[[layer]]\nname = "low"\nmodules = ["repro.core.errors"]\n'
            '[[layer]]\nname = "high"\nmodules = ["repro.core"]\n',
            "x",
        )
        assert contract.assignment("repro.core.errors").name == "low"
        assert contract.assignment("repro.core.models").name == "high"
        assert contract.assignment("other") is None

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("version = 2\n", "version"),
            ("version = 1\n", "at least one"),
            (
                'version = 1\n[[layer]]\nname = "a"\nmodules = []\n',
                "non-empty",
            ),
            (
                'version = 1\n[[layer]]\nname = "a"\nmodules = ["x"]\n'
                '[[layer]]\nname = "b"\nmodules = ["x"]\n',
                "assigned twice",
            ),
            (
                'version = 1\n[[layer]]\nname = "a"\nmodules = ["x"]\n'
                '[[layer]]\nname = "a"\nmodules = ["y"]\n',
                "duplicate layer name",
            ),
            (
                'version = 1\n[[layer]]\nname = "a"\nmodules = ["not a module!"]\n',
                "bad module prefix",
            ),
        ],
    )
    def test_invalid_contracts_raise(self, text, fragment):
        with pytest.raises(ContractError, match=fragment):
            parse_contract(text, "x")

    def test_minitoml_rejects_unsupported_lines(self):
        with pytest.raises(ContractError):
            _parse_mini_toml("[table]\nkey = 1\n", "x")
        with pytest.raises(ContractError):
            _parse_mini_toml('key = [ "unterminated"\n', "x")

    def test_multiline_arrays_and_comments(self):
        data = _parse_mini_toml(
            "# header comment\n"
            "version = 1  # trailing\n"
            "[[layer]]\n"
            'name = "base"\n'
            "modules = [\n"
            '    "repro.a",  # one\n'
            '    "repro.b",\n'
            "]\n",
            "x",
        )
        assert data == {
            "version": 1,
            "layer": [{"name": "base", "modules": ["repro.a", "repro.b"]}],
        }


class TestRepositoryTree:
    def test_committed_tree_is_clean_under_program_analysis(self):
        # The headline acceptance criterion: every finding the new
        # passes raise across src/repro was fixed, not grandfathered.
        result = lint_paths(
            [REPO_ROOT / "src" / "repro"],
            config=LintConfig(root=REPO_ROOT),
            program=True,
        )
        assert result.findings == []
        assert result.files_checked > 100
