"""The report is a regression artifact: same tree, same bytes."""

import shutil

from repro.analysis.engine import LintConfig, lint_paths
from repro.analysis.findings import Finding
from repro.analysis.report import render_summary, render_table

from tests.analysis.conftest import FIXTURES


def _fixture_files():
    return sorted(FIXTURES.rglob("*.py"))


class TestReportDeterminism:
    def test_repeated_runs_are_byte_identical(self, config):
        first = render_table(lint_paths([FIXTURES], config=config))
        second = render_table(lint_paths([FIXTURES], config=config))
        assert first == second
        assert "findings" in first  # the bad_* fixtures guarantee rows

    def test_input_order_does_not_change_bytes(self, config):
        forward = lint_paths(_fixture_files(), config=config)
        backward = lint_paths(
            list(reversed(_fixture_files())), config=config
        )
        assert render_table(forward) == render_table(backward)

    def test_rows_are_sorted_by_location(self, config):
        findings = lint_paths([FIXTURES], config=config).findings
        assert findings
        assert findings == sorted(findings, key=Finding.sort_key)


class TestTableReport:
    def test_summary_counts(self, config):
        result = lint_paths([FIXTURES / "bad_suppressed.py"], config=config)
        summary = render_summary(result)
        assert "checked 1 files" in summary
        assert "8 findings" in summary
        assert "2 suppressed" in summary


class TestParseErrors:
    def test_unparseable_file_is_a_finding_not_a_crash(self, tmp_path):
        # The fixture ships with a non-.py suffix so neither pytest nor
        # the repo-wide lint walk trips over it; the engine sees it only
        # once installed as real module source.
        target = tmp_path / "parse_error.py"
        shutil.copy(FIXTURES / "parse_error.py.fixture", target)
        result = lint_paths([target], config=LintConfig(root=tmp_path))
        assert result.files_checked == 1
        assert [f.rule for f in result.findings] == ["parse-error"]
        finding = result.findings[0]
        assert finding.path == "parse_error.py"
        assert finding.line >= 1
        assert "does not parse" in finding.message

    def test_parse_error_report_is_deterministic(self, tmp_path):
        target = tmp_path / "parse_error.py"
        shutil.copy(FIXTURES / "parse_error.py.fixture", target)
        config = LintConfig(root=tmp_path)
        first = render_table(lint_paths([target], config=config))
        second = render_table(lint_paths([target], config=config))
        assert first == second
