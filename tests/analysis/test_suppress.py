"""Suppression parsing and engine-level suppression semantics."""

import textwrap

from repro.analysis.engine import LintConfig, lint_paths
from repro.analysis.suppress import Suppression, parse_suppressions

from tests.analysis.conftest import REPO_ROOT


def _parse(source):
    return parse_suppressions(textwrap.dedent(source).splitlines())


class TestParseSuppressions:
    def test_well_formed_directive(self):
        by_line, problems = _parse(
            """\
            x = 1
            y = f()  # repro-lint: allow[obs-purity] guarded at the call site
            """
        )
        assert problems == []
        assert by_line == {
            2: Suppression(
                line=2, rule="obs-purity", reason="guarded at the call site"
            )
        }

    def test_missing_reason_is_a_problem(self):
        by_line, problems = _parse(
            "y = f()  # repro-lint: allow[obs-purity]\n"
        )
        assert by_line == {}
        assert len(problems) == 1
        line, message = problems[0]
        assert line == 1
        assert "no reason" in message

    def test_malformed_rule_id_is_a_problem(self):
        by_line, problems = _parse(
            "y = f()  # repro-lint: allow[Not A Rule] because\n"
        )
        assert by_line == {}
        assert problems[0][0] == 1
        assert "invalid rule id" in problems[0][1]

    def test_unparseable_attempt_is_a_problem(self):
        # Typoed syntax must not be silently skipped.
        by_line, problems = _parse(
            "y = f()  # repro-lint allow(obs-purity) oops\n"
        )
        assert by_line == {}
        assert problems[0][0] == 1
        assert "unparseable" in problems[0][1]

    def test_plain_comments_are_ignored(self):
        by_line, problems = _parse(
            """\
            # an ordinary comment about linting in general
            x = 1  # not a directive
            """
        )
        assert by_line == {}
        assert problems == []

    def test_covers_same_line_and_line_above_only(self):
        suppression = Suppression(line=10, rule="obs-purity", reason="r")
        assert suppression.covers(10)
        assert suppression.covers(11)
        assert not suppression.covers(9)
        assert not suppression.covers(12)


class TestEngineSuppression:
    def test_bad_suppressed_fixture_partition(self, lint_fixture):
        result = lint_fixture("bad_suppressed.py")
        # Covered: same-line (7) and line-above (11 covering 12).
        suppressed = sorted(
            (finding.line, suppression.line)
            for finding, suppression in result.suppressed
        )
        assert suppressed == [(7, 7), (12, 11)]
        # Everything else stays a finding, including the malformed
        # directives themselves (invalid-suppression at col 0).
        rng = "no-unseeded-random"
        assert sorted((f.line, f.col, f.rule) for f in result.findings) == [
            (18, 11, rng),  # directive two lines up: no cover
            (22, 11, rng),  # directive names the wrong rule
            (26, 0, "invalid-suppression"),  # reason-less directive
            (26, 11, rng),  # ... which therefore doesn't cover
            (30, 0, "invalid-suppression"),  # unknown rule id
            (30, 11, rng),  # ... which therefore doesn't cover
            (34, 0, "invalid-suppression"),  # a deleted rule's id
            (34, 11, rng),  # ... which therefore doesn't cover
        ]

    def test_unknown_rule_message_names_the_id(self, lint_fixture):
        # A deleted rule's id is unknown like any typo: a stale allow
        # comment becomes a finding instead of silently matching nothing.
        result = lint_fixture("bad_suppressed.py")
        messages = [
            f.message for f in result.findings if f.rule == "invalid-suppression"
        ]
        assert any("'no-such-rule'" in message for message in messages)
        assert any("'no-wall-clock'" in message for message in messages)

    def test_invalid_suppression_cannot_be_suppressed(self, tmp_path):
        target = tmp_path / "meta.py"
        target.write_text(
            "# repro-lint: allow[invalid-suppression] trying to self-silence\n"
            "x = 1\n",
            encoding="utf-8",
        )
        result = lint_paths([target], config=LintConfig(root=tmp_path))
        assert [(f.rule, f.line) for f in result.findings] == [
            ("invalid-suppression", 1)
        ]
        assert "cannot be suppressed" in result.findings[0].message
        assert result.suppressed == []

    def test_parse_error_cannot_be_suppressed(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text(
            "# repro-lint: allow[parse-error] wishful thinking\n"
            "def broken(:\n",
            encoding="utf-8",
        )
        result = lint_paths([target], config=LintConfig(root=tmp_path))
        rules = {f.rule for f in result.findings}
        # The file never parses, so only parse-error is reported and no
        # suppression (parseable or not) can absorb it.
        assert rules == {"parse-error"}
        assert result.suppressed == []

    def test_suppression_in_repo_tree_paths(self, lint_fixture):
        # Suppressed findings still carry repo-relative paths for the
        # verbose report.
        result = lint_fixture("bad_suppressed.py")
        for finding, _ in result.suppressed:
            assert finding.path == "tests/analysis/fixtures/bad_suppressed.py"
            assert finding.path.startswith("tests/")
        assert REPO_ROOT.joinpath(result.suppressed[0][0].path).exists()
