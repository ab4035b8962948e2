"""The committed numbers show each workload isolating the layers it claims to."""

import json
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS

BASELINE = json.loads((Path(__file__).resolve().parents[1] / "baseline.json").read_text())


def _layer(workload, name):
    return BASELINE["per_layer"][workload][name]


def test_every_metric_has_a_number_for_every_workload():
    for workload in WORKLOADS:
        for metric in END_TO_END:
            for run_set in ("first", "second"):
                assert BASELINE["end_to_end"][workload][metric.name][run_set]["median"] > 0
        assert set(BASELINE["per_layer"][workload]) == {m.name for m in PER_LAYER}


def test_two_sets_of_runs_agree_within_the_bounds():
    for workload in WORKLOADS:
        for metric in END_TO_END:
            cell = BASELINE["end_to_end"][workload][metric.name]
            first, second = cell["first"]["median"], cell["second"]["median"]
            worse = (second - first) / first * (1 if metric.better == "lower" else -1)
            assert worse <= metric.bound, (workload, metric.name)
            if metric.name != "setup_s":
                for run_set in ("first", "second"):
                    assert cell[run_set]["spread"] <= metric.bound, (workload, metric.name)


def test_the_workloads_isolate_their_layers():
    assert _layer("page-views", "filters.bloom.short_circuit_ratio") >= 0.98
    assert _layer("revoked-reads", "filters.bloom.short_circuit_ratio") == 0
    assert _layer("revoked-reads", "crypto.signatures.signs_per_op") >= 2
    assert _layer("page-views", "crypto.signatures.signs_per_op") <= 0.1
    assert _layer("page-views", "ledger.events.appends_per_op") == 0
    assert _layer("revoked-reads", "ledger.events.appends_per_op") == 0
    assert _layer("owner-writes", "ledger.events.appends_per_op") >= 3
    assert _layer("page-views", "server.cpu_util") >= 0.85


def test_the_generator_was_valid_and_the_budget_adds_up():
    for workload in WORKLOADS:
        assert _layer(workload, "loadgen.client_cpu_share") < 0.9
        assert abs(_layer(workload, "trace.accounted_fraction") - 1.0) <= 0.02
        assert _layer(workload, "loadgen.failed_per_kop") == 0
    assert _layer("mixed-open", "loadgen.late_p99_ms") < 5
