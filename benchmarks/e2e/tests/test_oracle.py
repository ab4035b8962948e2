"""The generator's ground truth: what fails an op, what makes a run incorrect."""

import json

from oracle import Oracle, over_budget
from workloads import Req


def _oracle():
    oracle = Oracle()
    oracle.add("irs1:a", False)
    oracle.add("irs1:b", True)
    return oracle


def _status_body(wire_id, revoked, **extra):
    return json.dumps({"id": wire_id, "revoked": revoked, "error": None, **extra}).encode()


def test_a_settled_wrong_verdict_is_a_violation_named_by_request_index():
    oracle = _oracle()
    req = Req("status", (1,))
    failed = oracle.check(17, req, oracle.begin(req), 200, {}, _status_body("irs1:b", False))
    assert failed == 1
    assert oracle.violations and oracle.violations[0].startswith("request 17 (status)")


def test_either_verdict_is_accepted_while_a_write_is_in_flight():
    oracle = _oracle()
    write, read = Req("revoke", (0,)), Req("status", (0,))
    write_snapshot = oracle.begin(write)
    read_snapshot = oracle.begin(read)
    for verdict in (True, False):
        assert oracle.check(1, read, read_snapshot, 200, {}, _status_body("irs1:a", verdict)) == 0
    reply = json.dumps({"id": "irs1:a", "action": "revoke", "epoch": 1, "error": None}).encode()
    assert oracle.check(2, write, write_snapshot, 200, {}, reply) == 0
    # A read sent before the ack still accepts either; one sent after does not.
    assert oracle.check(3, read, read_snapshot, 200, {}, _status_body("irs1:a", False)) == 0
    late = oracle.begin(read)
    assert oracle.check(4, read, late, 200, {}, _status_body("irs1:a", False)) == 1
    assert not oracle.violations[:-1] and "request 4" in oracle.violations[-1]


def test_degraded_answers_fail_and_slow_replies_are_counted_apart():
    oracle = _oracle()
    req = Req("status", (1,))
    envelope = {"kind": "degraded", "status": 203, "detail": "quorum unreachable"}
    body = json.dumps({"id": "irs1:b", "revoked": True, "degraded": True, "error": envelope}).encode()
    assert oracle.check(1, req, oracle.begin(req), 203, {}, body) == 1
    assert oracle.violations == []
    assert over_budget("status", 251.0) and not over_budget("status", 249.0)
    assert over_budget("bloom", 251.0) and not over_budget("deltas", 101.0)
    assert over_budget("claim", 101.0) and over_budget("unrevoke", 101.0)
    assert not over_budget("revoke", 99.0)


def test_a_non_2xx_body_must_be_the_documented_envelope():
    oracle = _oracle()
    req = Req("status", (0,))
    good = json.dumps({"error": {"kind": "deadline", "status": 504, "detail": "late"}}).encode()
    assert oracle.check(1, req, oracle.begin(req), 504, {}, good) == 1
    assert oracle.violations == []
    for bad in (b"<html>oops</html>", json.dumps({"error": {"kind": "deadline", "status": 500, "detail": "x"}}).encode()):
        oracle.check(2, req, oracle.begin(req), 504, {}, bad)
    assert len(oracle.violations) == 2


def test_bloom_304_and_deltas_head():
    oracle = _oracle()
    bloom = Req("bloom")
    assert oracle.check(1, bloom, oracle.begin(bloom), 200, {"etag": '"abc"'}, b"\x00") == 0
    assert b'if-none-match: "abc"' in oracle.encode(bloom, 2)
    assert oracle.check(2, bloom, oracle.begin(bloom), 304, {}, b"") == 0
    oracle.acked_revocations = 3
    deltas = Req("deltas")
    behind = json.dumps({"head": 2, "entries": [], "error": None}).encode()
    assert oracle.check(3, deltas, oracle.begin(deltas), 200, {}, behind) == 1
    assert "behind 3 acked" in oracle.violations[-1]


def test_audit_flags_lost_claims_and_lost_revocations_only():
    oracle = _oracle()
    oracle.add("irs1:c", True)
    refused = Req("unrevoke", (2,))
    oracle.begin(refused)  # never acked: the state of irs1:c is unknown
    not_found = {"kind": "not_found", "status": 404, "detail": "unknown serial"}
    results = [
        {"id": "irs1:a", "revoked": True, "error": not_found},
        {"id": "irs1:b", "revoked": False, "error": None},
        {"id": "irs1:c", "revoked": False, "error": None},
    ]
    assert oracle.audit([0, 1, 2], 200, results) == 2
    assert oracle.audit([0, 1], 503, []) == 2
    assert "acked claim answers 404" in oracle.violations[0]
    assert "acked revocation does not read revoked" in oracle.violations[1]
