"""docs/runbook.md's knob table and ``ClusterConfig`` must agree, both ways."""

import dataclasses

from repro.cluster import ClusterConfig
from tests.service.test_routes_drift import load_check_docs


def test_knob_table_is_the_dataclass():
    check_docs = load_check_docs()
    assert check_docs.check_knob_drift() == []
    fields = {field.name for field in dataclasses.fields(ClusterConfig)}
    assert check_docs.config_fields() == check_docs.documented_knobs() == fields


def test_knob_drift_is_detected_both_ways():
    check_docs = load_check_docs()
    fields = check_docs.config_fields()
    check_docs.config_fields = lambda: fields | {"made_up"}
    assert any("made_up is not in the knob table" in p
               for p in check_docs.check_knob_drift())
    check_docs.config_fields = lambda: fields - {"shed_burst"}
    assert any("`shed_burst` is not a ClusterConfig field" in p
               for p in check_docs.check_knob_drift())
