"""Consistency checker: each invariant on synthetic histories."""

import pytest

from repro.chaos.checker import ConsistencyChecker, state_digest
from repro.chaos.history import HistoryRecorder, Op


def _write(op_id, kind, serial, at, epoch, state, done=None):
    return Op(
        op_id=op_id,
        kind=kind,
        serial=serial,
        invoked_at=at,
        completed_at=done if done is not None else at + 0.1,
        ok=True,
        revoked=(state == "revoked"),
        epoch=epoch,
        state=state,
    )


def _status(op_id, serial, at, epoch, revoked, ok=True, done=None):
    return Op(
        op_id=op_id,
        kind="status",
        serial=serial,
        invoked_at=at,
        completed_at=done if done is not None else at + 0.05,
        ok=ok,
        revoked=revoked,
        epoch=epoch,
    )


class TestMonotonicEpochs:
    def test_increasing_epochs_pass(self):
        history = [
            _write(0, "revoke", 1, 1.0, 1, "revoked"),
            _write(1, "unrevoke", 1, 2.0, 2, "not_revoked"),
            _write(2, "revoke", 1, 3.0, 3, "revoked"),
        ]
        assert ConsistencyChecker().check(history).ok

    def test_epoch_regression_flagged(self):
        history = [
            _write(0, "revoke", 1, 1.0, 2, "revoked"),
            _write(1, "unrevoke", 1, 2.0, 1, "not_revoked"),
        ]
        report = ConsistencyChecker().check(history)
        assert report.count("monotonic_epoch") == 1

    def test_idempotent_reack_is_legal(self):
        # Revoking an already-revoked record re-acks the same epoch
        # with the same state — not a regression.
        history = [
            _write(0, "revoke", 1, 1.0, 1, "revoked"),
            _write(1, "revoke", 1, 2.0, 1, "revoked"),
        ]
        assert ConsistencyChecker().check(history).ok

    def test_same_epoch_different_state_flagged(self):
        history = [
            _write(0, "revoke", 1, 1.0, 1, "revoked"),
            _write(1, "unrevoke", 1, 2.0, 1, "not_revoked"),
        ]
        report = ConsistencyChecker().check(history)
        assert report.count("monotonic_epoch") == 1

    def test_unacked_writes_ignored(self):
        failed = _write(0, "revoke", 1, 1.0, 5, "revoked")
        failed.ok = False
        history = [failed, _write(1, "revoke", 1, 2.0, 1, "revoked")]
        assert ConsistencyChecker().check(history).ok


class TestDurability:
    def test_read_after_acked_revoke_must_see_it(self):
        history = [
            _write(0, "revoke", 1, 1.0, 1, "revoked", done=1.2),
            _status(1, 1, at=2.0, epoch=0, revoked=False),
        ]
        report = ConsistencyChecker().check(history)
        assert report.count("revocation_durability") == 1

    def test_read_issued_before_the_ack_is_exempt(self):
        # Invoked at 1.1 < ack at 1.2: the write was not yet
        # acknowledged when the read started — bounded staleness, legal.
        history = [
            _write(0, "revoke", 1, 1.0, 1, "revoked", done=1.2),
            _status(1, 1, at=1.1, epoch=0, revoked=False, done=1.3),
        ]
        assert ConsistencyChecker().check(history).ok

    def test_stale_epoch_with_correct_verdict_is_stale_read(self):
        # Observed revoked=True (verdict right) but at an old epoch
        # after a newer unrevoke was acknowledged: stale, not a
        # resurrection.
        history = [
            _write(0, "revoke", 1, 1.0, 1, "revoked"),
            _write(1, "unrevoke", 1, 2.0, 2, "not_revoked", done=2.2),
            _status(2, 1, at=3.0, epoch=1, revoked=True),
        ]
        report = ConsistencyChecker().check(history)
        assert report.count("stale_read") == 1
        assert report.count("revocation_durability") == 0

    def test_current_reads_pass(self):
        history = [
            _write(0, "revoke", 1, 1.0, 1, "revoked", done=1.2),
            _status(1, 1, at=2.0, epoch=1, revoked=True),
        ]
        assert ConsistencyChecker().check(history).ok

    def test_failed_reads_are_unavailability_not_violations(self):
        history = [
            _write(0, "revoke", 1, 1.0, 1, "revoked", done=1.2),
            _status(1, 1, at=2.0, epoch=-1, revoked=True, ok=False),
        ]
        assert ConsistencyChecker().check(history).ok


class TestConvergence:
    def _history(self):
        return [_write(0, "revoke", 7, 1.0, 2, "revoked")]

    def test_agreeing_replicas_pass(self):
        states = {
            "s0": {7: ("revoked", 2)},
            "s1": {7: ("revoked", 2)},
        }
        report = ConsistencyChecker().check(
            self._history(), replica_states=states
        )
        assert report.ok

    def test_disagreeing_replicas_flagged(self):
        states = {
            "s0": {7: ("revoked", 2)},
            "s1": {7: ("not_revoked", 1)},
        }
        report = ConsistencyChecker().check(
            self._history(), replica_states=states
        )
        assert report.count("divergence") == 1

    def test_dead_replicas_excluded_from_divergence(self):
        states = {
            "s0": {7: ("revoked", 2)},
            "s1": {7: ("not_revoked", 1)},
        }
        report = ConsistencyChecker().check(
            self._history(), replica_states=states, live_shards=["s0"]
        )
        assert report.ok

    def test_wiped_replicas_are_not_divergent(self):
        # s1 does not hold the record at all (wiped): an availability
        # gap, not disagreement.
        states = {"s0": {7: ("revoked", 2)}, "s1": {}}
        report = ConsistencyChecker().check(
            self._history(), replica_states=states
        )
        assert report.ok

    def test_acked_epoch_missing_everywhere_is_lost_write(self):
        states = {
            "s0": {7: ("not_revoked", 0)},
            "s1": {7: ("not_revoked", 0)},
        }
        report = ConsistencyChecker().check(
            self._history(), replica_states=states
        )
        assert report.count("lost_write") == 1

    def test_placement_scopes_the_replica_set(self):
        # s2 is not a replica of serial 7 — its stray copy is ignored.
        states = {
            "s0": {7: ("revoked", 2)},
            "s1": {7: ("revoked", 2)},
            "s2": {7: ("not_revoked", 0)},
        }
        report = ConsistencyChecker(
            placement=lambda serial: ["s0", "s1"]
        ).check(self._history(), replica_states=states)
        assert report.ok


class TestHistoryRecorder:
    def test_records_intervals_and_signatures(self):
        times = iter([1.0, 1.5, 2.0])
        recorder = HistoryRecorder(clock=lambda: next(times))
        op_id = recorder.begin("status", 42)
        other = recorder.begin("revoke", 43)
        recorder.complete(op_id, ok=True, revoked=False, epoch=0)
        assert len(recorder) == 2
        op = recorder.ops[op_id]
        assert op.invoked_at == 1.0 and op.completed_at == 2.0
        assert op.acked
        assert not recorder.ops[other].completed  # still open
        assert recorder.signature()[0][1] == "status"


class TestStateDigest:
    def test_digest_is_canonical(self):
        a = {"s0": {1: ("revoked", 1), 2: ("not_revoked", 0)}}
        b = {"s0": {2: ("not_revoked", 0), 1: ("revoked", 1)}}
        assert state_digest(a) == state_digest(b)

    def test_digest_moves_with_state(self):
        a = {"s0": {1: ("revoked", 1)}}
        b = {"s0": {1: ("revoked", 2)}}
        c = {"s1": {1: ("revoked", 1)}}
        assert len({state_digest(a), state_digest(b), state_digest(c)}) == 3
