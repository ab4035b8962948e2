"""Per-rule behavior against known-good and known-bad fixtures.

Each ``bad_*`` fixture carries deliberate violations at pinned lines;
each ``good_*`` fixture uses the sanctioned idioms the rule must
accept.  Assertions are on ``(line, rule)`` pairs so message rewording
doesn't churn the tests, while a moved or dropped detection does.
"""


def _locations(result):
    return sorted((f.line, f.rule) for f in result.findings)


class TestNoUnseededRandom:
    def test_bad_fixture_findings(self, lint_fixture):
        result = lint_fixture("bad_random.py", select=["no-unseeded-random"])
        assert _locations(result) == [
            (5, "no-unseeded-random"),  # from random import shuffle
            (9, "no-unseeded-random"),  # random.random()
            (13, "no-unseeded-random"),  # np.random.default_rng()
            (17, "no-unseeded-random"),  # np.random.rand(...)
            (21, "no-unseeded-random"),  # random.Random()
        ]

    def test_seeded_idioms_are_clean(self, lint_fixture):
        result = lint_fixture("good_random.py")
        assert result.findings == []


class TestObsPurity:
    def test_bad_fixture_findings(self, lint_fixture):
        result = lint_fixture("bad_obs.py", select=["obs-purity"])
        assert _locations(result) == [
            (9, "obs-purity"),  # unguarded call on self.obs
            (13, "obs-purity"),  # obs value in a comparison
            (19, "obs-purity"),  # obs value returned
        ]

    def test_guard_idioms_are_clean(self, lint_fixture):
        result = lint_fixture("good_obs.py")
        assert result.findings == []


class TestDeadlineDiscipline:
    def test_bad_fixture_findings(self, lint_fixture):
        result = lint_fixture(
            "cluster/bad_deadlines.py", select=["deadline-discipline"]
        )
        assert _locations(result) == [
            (6, "deadline-discipline"),  # .invoke(...) without timeout=
            (10, "deadline-discipline"),  # .call(...) without timeout=
        ]

    def test_timeout_forms_are_clean(self, lint_fixture):
        # timeout=, explicit timeout=None, **kwargs, deadline= all pass.
        result = lint_fixture("cluster/good_deadlines.py")
        assert result.findings == []

    def test_rule_only_applies_inside_rpc_dirs(self, lint_fixture, config):
        # The same calls outside an rpc_dirs segment are not RPC surface.
        from dataclasses import replace

        from repro.analysis.engine import lint_paths
        from tests.analysis.conftest import FIXTURES

        narrowed = replace(config, rpc_dirs=("nonexistent",))
        result = lint_paths(
            [FIXTURES / "cluster" / "bad_deadlines.py"],
            config=narrowed,
            select=["deadline-discipline"],
        )
        assert result.findings == []


class TestNoSilentExcept:
    def test_bad_fixture_findings(self, lint_fixture):
        result = lint_fixture("bad_excepts.py", select=["no-silent-except"])
        assert _locations(result) == [
            (7, "no-silent-except"),  # bare except: pass
            (14, "no-silent-except"),  # except Exception: pass
            (21, "no-silent-except"),  # except Exception: ... (empty)
        ]

    def test_narrow_or_handled_excepts_are_clean(self, lint_fixture):
        result = lint_fixture("good_excepts.py")
        assert result.findings == []


class TestFindingShape:
    def test_columns_and_paths_are_repo_relative(self, lint_fixture):
        result = lint_fixture("bad_random.py")
        for finding in result.findings:
            assert finding.path == "tests/analysis/fixtures/bad_random.py"
            assert finding.col >= 0
        rendered = result.findings[0].render()
        assert rendered.startswith(
            "tests/analysis/fixtures/bad_random.py:5:0: no-unseeded-random:"
        )
