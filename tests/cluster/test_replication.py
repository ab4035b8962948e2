"""Quorum primitives: transport faults, quorum writes, status merging."""

import pytest

from repro.cluster import (
    HintQueue,
    LocalShardTransport,
    QuorumExecutor,
    ShardReply,
    StatusCollector,
    majority,
)
from repro.cluster.health import FailureDetector
from repro.netsim.simulator import ManualClock


class EchoShard:
    """Minimal shard double: one handler that records invocations."""

    def __init__(self, fail=False):
        self.fail = fail
        self.calls = []

    def rpc_handlers(self):
        def ping(payload):
            self.calls.append(payload)
            if self.fail:
                raise RuntimeError("boom")
            return {"pong": payload}

        return {"ping": ping}


def collect(transport, shard_id, method, payload):
    box = []
    transport.invoke(shard_id, method, payload, box.append)
    return box[0]


def test_majority():
    assert [majority(n) for n in (1, 2, 3, 4, 5)] == [1, 2, 2, 3, 3]


class TestLocalTransport:
    def test_roundtrip_and_errors(self):
        transport = LocalShardTransport({"a": EchoShard(), "b": EchoShard(fail=True)})
        assert collect(transport, "a", "ping", 1).value == {"pong": 1}
        assert "boom" in collect(transport, "b", "ping", 1).error
        assert "unknown shard" in collect(transport, "z", "ping", 1).error
        assert "unknown method" in collect(transport, "a", "nope", 1).error
        assert transport.shard_ids() == ["a", "b"]

    def test_kill_and_revive(self):
        transport = LocalShardTransport({"a": EchoShard()})
        transport.kill("a")
        assert collect(transport, "a", "ping", 1).error == "shard down"
        transport.revive("a")
        assert collect(transport, "a", "ping", 1).ok
        with pytest.raises(KeyError):
            transport.kill("z")


class TestQuorumExecutor:
    def _transport(self, down=()):
        shards = {f"s{i}": EchoShard() for i in range(3)}
        transport = LocalShardTransport(shards)
        for shard_id in down:
            transport.kill(shard_id)
        return transport

    def test_write_succeeds_at_quorum(self):
        executor = QuorumExecutor(self._transport(down=["s2"]))
        results = []
        executor.execute(["s0", "s1", "s2"], "ping", {}, 2, results.append)
        assert results[0].ok
        assert len(results[0].acks) >= 2
        assert len(results) == 1

    def test_write_fails_when_quorum_unreachable(self):
        executor = QuorumExecutor(self._transport(down=["s1", "s2"]))
        results = []
        executor.execute(["s0", "s1", "s2"], "ping", {}, 2, results.append)
        assert not results[0].ok
        assert "quorum 2/3 unreachable" in results[0].error
        assert len(results) == 1

    def test_detector_sees_every_reply(self):
        """``on_result`` hears each reply, post-quorum stragglers included."""
        clock = ManualClock()
        detector = FailureDetector(clock.now, failure_threshold=1)
        seen = []

        def on_result(shard_id, ok):
            seen.append((shard_id, ok))
            detector.record(shard_id, ok)

        executor = QuorumExecutor(self._transport(down=["s2"]), on_result=on_result)
        verdicts = []
        executor.execute(["s0", "s1", "s2"], "ping", {}, 1, verdicts.append)
        assert len(verdicts) == 1  # decided at s0's ack; s1, s2 are stragglers
        assert seen == [("s0", True), ("s1", True), ("s2", False)]
        assert detector.is_suspect("s2")
        assert not detector.is_suspect("s0")

    def test_invalid_quorum_rejected(self):
        executor = QuorumExecutor(self._transport())
        with pytest.raises(ValueError):
            executor.execute(["s0"], "ping", {}, 2, lambda r: None)
        with pytest.raises(ValueError):
            executor.execute(["s0"], "ping", {}, 0, lambda r: None)


def _entry(epoch, state="revoked"):
    return {"serial": 7, "proof": f"proof@{epoch}", "epoch": epoch, "state": state}


def _bare(epoch, state="revoked"):
    """What a replica that was not asked to sign answers."""
    return {"serial": 7, "epoch": epoch, "state": state}


class TestStatusCollector:
    def test_highest_epoch_wins(self):
        outcomes = []
        collector = StatusCollector(7, ["a", "b"], 2, outcomes.append)
        collector.record("a", _entry(0, "not_revoked"))
        assert not collector.done
        collector.record("b", _entry(2))
        assert collector.done
        outcome = outcomes[0]
        assert outcome.ok and outcome.epoch == 2
        assert outcome.answered_by == "b"
        assert outcome.stale_shards == ["a"]

    def test_stale_replicas_reported_for_repair(self):
        repairs = []
        collector = StatusCollector(
            7, ["a", "b", "c"], 2, lambda o: None,
            on_stale=lambda shard, o: repairs.append(shard),
        )
        collector.record("a", _entry(3))
        collector.record("b", _entry(1))
        assert repairs == ["b"]
        # A late reply below the winning epoch is also repaired.
        collector.record("c", _entry(0))
        assert repairs == ["b", "c"]

    def test_late_fresh_reply_not_repaired(self):
        repairs = []
        collector = StatusCollector(
            7, ["a", "b"], 1, lambda o: None,
            on_stale=lambda shard, o: repairs.append(shard),
        )
        collector.record("a", _entry(2))
        collector.record("b", _entry(2))
        assert repairs == []

    def test_quorum_failure_when_too_many_errors(self):
        outcomes = []
        collector = StatusCollector(7, ["a", "b", "c"], 2, outcomes.append)
        collector.record("a", {"serial": 7, "error": "unknown serial"})
        collector.record_error("b", "timeout")
        assert collector.done
        assert not outcomes[0].ok
        assert "quorum 2/3 unreachable" in outcomes[0].error
        # Errors after completion are ignored, not double-counted.
        collector.record_error("c", "timeout")
        assert len(outcomes) == 1

    def test_invalid_quorum_rejected(self):
        with pytest.raises(ValueError):
            StatusCollector(7, ["a"], 2, lambda o: None)

    def test_verdict_read_completes_at_quorum_on_state_and_epoch_alone(self):
        outcomes, repairs = [], []
        collector = StatusCollector(
            7, ["a", "b", "c"], 2, outcomes.append,
            on_stale=lambda shard, o: repairs.append(shard),
        )
        collector.record("a", _bare(0, "not_revoked"))
        assert not collector.done
        collector.record("b", _bare(1))
        (outcome,) = outcomes
        assert outcome.ok and outcome.proof is None
        assert (outcome.state, outcome.epoch) == ("revoked", 1)
        assert outcome.answered_by == "b"  # the quorum member at epoch 1
        assert repairs == ["a"]
        # A late reply cannot change a published verdict, only be repaired.
        collector.record("c", _bare(0, "not_revoked"))
        assert len(outcomes) == 1 and repairs == ["a", "c"]

    def test_proof_read_waits_for_a_proof_the_verdict_read_does_not_need(self):
        outcomes, fetches = [], []
        collector = StatusCollector(
            7, ["a", "b", "c"], 2, outcomes.append,
            on_unproven=lambda shard, asked: fetches.append(shard),
        )
        collector.record("a", _bare(1))
        collector.record("b", _bare(1))
        assert not outcomes and fetches == ["a"]
        collector.record("a", _entry(1))
        assert outcomes[0].ok and outcomes[0].proof == "proof@1"


def test_hint_queue_is_bounded_per_shard_and_counts_what_it_drops():
    clock = ManualClock()
    with pytest.raises(ValueError):
        HintQueue(clock.now, max_per_shard=0)
    hints = HintQueue(clock.now, max_per_shard=2)
    for serial in (1, 2, 3):
        hints.record("a", "apply_state", {"serial": serial}, epoch=1)
    assert hints.pending("a") == 2 and hints.hints_dropped == 1
    # The oldest went: replay delivers serials 2 and 3.
    delivered = []

    class Replica:
        def rpc_handlers(self):
            return {"apply_state": delivered.append}

    hints.replay("a", LocalShardTransport({"a": Replica()}))
    assert [payload["serial"] for payload in delivered] == [2, 3]
    assert hints.pending() == 0 and hints.drained_at == clock.now()


def test_shard_reply_ok():
    assert ShardReply("a", value=1).ok
    assert not ShardReply("a", error="x").ok
