"""The perf report's deterministic projection is byte-stable.

``BENCH_hotpaths.json`` is a committed regression artifact: everything
outside the ``host`` block and the per-case ``timing`` subtrees must be
byte-identical across same-seed runs, or the CI gate would flap.  These
tests run the real suite twice (minimum repeats — timing numbers are
irrelevant here) and compare the ``strip_timing`` projections, then
hold the committed baseline itself to the schema.
"""

import json

import pytest

from repro.analysis.engine import repo_root
from repro.perf.harness import PerfError, run_suite
from repro.perf.report import (
    REPORT_SCHEMA,
    build_report,
    canonical_json,
    compare_to_baseline,
    strip_timing,
    validate_report,
)
from repro.perf.suite import default_suite

BASELINE = repo_root() / "BENCH_hotpaths.json"


@pytest.fixture(scope="module")
def two_runs():
    # One warmup call keeps cold-start noise out of the speedups the
    # self-comparison test feeds back through the gate.
    kwargs = dict(seed=2022, warmup=1, repeats=1)
    return [
        build_report(run_suite(default_suite(), **kwargs), **kwargs)
        for _ in range(2)
    ]


class TestDeterminism:
    def test_same_seed_runs_identical_modulo_timing(self, two_runs):
        first, second = two_runs
        assert canonical_json(strip_timing(first)) == canonical_json(
            strip_timing(second)
        )

    def test_reports_validate(self, two_runs):
        for report in two_runs:
            assert validate_report(report) == []

    def test_strip_timing_removes_only_the_volatile_parts(self, two_runs):
        report = two_runs[0]
        stripped = strip_timing(report)
        assert "host" not in stripped
        assert all(
            "timing" not in entry for entry in stripped["cases"].values()
        )
        # Not an in-place mutation: the original keeps its timing.
        assert "host" in report
        assert all("timing" in entry for entry in report["cases"].values())

    def test_canonical_json_is_canonical(self, two_runs):
        text = canonical_json(two_runs[0])
        assert text.endswith("\n")
        assert json.loads(text) == two_runs[0]
        # Round-tripping through parse produces the same bytes.
        assert canonical_json(json.loads(text)) == text

    def test_self_comparison_passes_the_gate(self, two_runs):
        first, second = two_runs
        assert compare_to_baseline(second, first, tolerance=0.01) == []

    def test_duplicate_case_names_rejected(self):
        suite = default_suite()
        with pytest.raises(PerfError, match="duplicate"):
            run_suite(suite + [suite[0]], seed=2022, warmup=0, repeats=1)


class TestCommittedBaseline:
    def test_baseline_exists_and_validates(self):
        assert BASELINE.exists(), (
            "BENCH_hotpaths.json missing; run `python -m repro perf` "
            "and commit the report"
        )
        with open(BASELINE, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        assert baseline["schema"] == REPORT_SCHEMA
        assert validate_report(baseline) == []

    def test_baseline_bytes_are_canonical(self):
        text = BASELINE.read_text(encoding="utf-8")
        assert canonical_json(json.loads(text)) == text

    def test_baseline_cases_match_the_suite(self):
        with open(BASELINE, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        assert sorted(baseline["cases"]) == sorted(
            case.name for case in default_suite()
        )

    def test_baseline_covers_the_named_hot_paths(self):
        with open(BASELINE, "r", encoding="utf-8") as fh:
            names = set(json.load(fh)["cases"])
        assert {
            "bloom_batch_membership",
            "hamming_distance",
            "quorum_round",
            "event_append",
            "chain_verify",
            "snapshot_replay",
            "rsa_sign_verify",
        } == names
