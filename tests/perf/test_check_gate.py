"""``python -m repro perf --check`` actually trips — and actually passes.

A regression gate that never fires is indistinguishable from no gate,
so these tests drive the real CLI end to end: write a fresh baseline,
pass against it untouched, then inject a 20ms busy-wait into every
fast-path call (``--slowdown-ns``) and require a nonzero exit.
"""

import json

import pytest

from repro.__main__ import main
from repro.perf.report import compare_to_baseline

# Cheap but not cold: one warmup call keeps first-call noise from
# eroding the speedups the tolerance band is computed from.
_FAST = ["--warmup", "1", "--repeats", "2"]
# 20ms per fast call dwarfs every measured hot path (sub-3ms), so the
# paired speedups collapse well below their floors.
_SLOWDOWN = ["--slowdown-ns", "20000000"]


@pytest.fixture(scope="module")
def baseline_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("perf") / "baseline.json"
    assert main(["perf", "--output", str(path), *_FAST]) == 0
    assert path.exists()
    return path


class TestCheckGate:
    def test_clean_check_passes(self, baseline_path, capsys):
        # A wall-clock gate fed by 2-repeat samples: one sample taken
        # while another process held the core must not fail the suite,
        # so the clean pass is the best of three attempts.  The
        # slowdown test below keeps a single attempt — a gate that
        # needs luck to trip is no gate.
        for _ in range(3):
            code = main(
                ["perf", "--check", "--baseline", str(baseline_path), *_FAST]
            )
            captured = capsys.readouterr()
            if code == 0:
                break
        assert code == 0, captured.out
        assert "within the tolerance band" in captured.out

    def test_injected_slowdown_trips_the_gate(self, baseline_path, capsys):
        code = main(
            [
                "perf", "--check", "--baseline", str(baseline_path),
                *_FAST, *_SLOWDOWN,
            ]
        )
        captured = capsys.readouterr()
        assert code != 0
        assert "gate failure" in captured.out
        assert "below gate" in captured.out

    def test_missing_baseline_fails_with_instructions(self, tmp_path, capsys):
        code = main(
            [
                "perf", "--check",
                "--baseline", str(tmp_path / "absent.json"),
                *_FAST,
            ]
        )
        captured = capsys.readouterr()
        assert code != 0
        assert "no baseline" in captured.out


class TestComparePolicy:
    """Unit-level gate policy checks against a doctored baseline."""

    @pytest.fixture(scope="class")
    def report(self, baseline_path):
        with open(baseline_path, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def _clone(self, report):
        return json.loads(json.dumps(report))

    def test_case_set_drift_fails_both_ways(self, report):
        missing = self._clone(report)
        del missing["cases"]["bloom_batch_membership"]
        assert any(
            "not measured" in failure
            for failure in compare_to_baseline(missing, report)
        )
        assert any(
            "absent from the baseline" in failure
            for failure in compare_to_baseline(report, missing)
        )

    def test_checksum_drift_is_a_correctness_failure(self, report):
        drifted = self._clone(report)
        drifted["cases"]["quorum_round"]["checksum"] = "0" * 64
        assert any(
            "correctness drift" in failure
            for failure in compare_to_baseline(drifted, report)
        )

    def test_workload_size_drift_fails(self, report):
        resized = self._clone(report)
        resized["cases"]["hamming_distance"]["ops"] += 1
        assert any(
            "workload size changed" in failure
            for failure in compare_to_baseline(resized, report)
        )

    def test_floor_applies_even_with_generous_committed_speedup(self, report):
        slow = self._clone(report)
        case = slow["cases"]["bloom_batch_membership"]
        case["timing"]["speedup"] = float(case["min_speedup"]) / 2
        assert any(
            "below gate" in failure
            for failure in compare_to_baseline(slow, report, tolerance=0.01)
        )

    def test_tolerance_must_be_a_fraction(self, report):
        with pytest.raises(ValueError):
            compare_to_baseline(report, report, tolerance=0.0)
        with pytest.raises(ValueError):
            compare_to_baseline(report, report, tolerance=1.5)
