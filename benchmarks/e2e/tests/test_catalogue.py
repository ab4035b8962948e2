"""BENCHMARK.json (the driver's view) and metrics.py (ours) must agree."""

import json
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[3] / "BENCHMARK.json").read_text()
)


def test_workloads_match():
    assert BENCHMARK["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()
    ]
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS.values())


def test_metrics_match():
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    names = [m.name for m in (*END_TO_END, *PER_LAYER)]
    assert len(names) == len(set(names))
    assert all(m.bound <= 0.25 for m in END_TO_END)


def test_the_command_names_only_the_benchmark_directory():
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]
