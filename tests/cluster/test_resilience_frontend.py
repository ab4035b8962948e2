"""The frontend's resilience layer on the synchronous local transport.

Covers the client-side half (reads that outlive dead replicas,
degraded fail-closed reads, breakers, config validation) and the
server-side repair half (hinted handoff replay, anti-entropy
re-replication after a wipe).
"""

import pytest

from repro.cluster import AntiEntropySweeper, ClusterConfig, LearningBloom
from repro.ledger.records import RevocationState
from repro.resilience import Deadline

from tests.cluster.conftest import LocalCluster


def _status_unfiltered(cluster, identifier):
    """A status read that skips the Bloom pre-check (forces shard I/O)."""
    box = []
    cluster.frontend.status_async(identifier, box.append, use_filter=False)
    assert box, "status did not complete synchronously"
    return box[0]


# -- reads survive dead replicas ------------------------------------------------


def test_failover_still_finds_a_survivor():
    cluster = LocalCluster(
        config=ClusterConfig(replication_factor=3, read_quorum=1)
    )
    identifier = cluster.claim_photo("survivor")
    replicas = cluster.frontend.replicas_for(identifier)
    cluster.transport.kill(replicas[0])
    cluster.transport.kill(replicas[1])
    answer = cluster.frontend.status(identifier)
    assert answer.ok
    assert answer.answered_by == replicas[2]


# -- degraded reads are fail-closed --------------------------------------------


def test_degraded_read_reports_acked_revocation_with_all_replicas_dead():
    cluster = LocalCluster(
        config=ClusterConfig(replication_factor=3, degraded_reads=True)
    )
    cluster.frontend.filterset = LearningBloom(capacity=256)
    identifier = cluster.claim_photo("degraded-revoked")
    cluster.frontend.revoke(identifier, cluster.owner)  # acked => in filter
    for shard_id in cluster.frontend.replicas_for(identifier):
        cluster.transport.kill(shard_id)
    answer = _status_unfiltered(cluster, identifier)
    assert answer.ok  # degraded answers are answers, not errors
    assert answer.degraded
    assert answer.source == "degraded"
    assert answer.revoked  # never fail open on an acked revocation
    assert cluster.frontend.stats.degraded_answers == 1


def test_degraded_read_clears_unrevoked_records_from_the_filter():
    cluster = LocalCluster(
        config=ClusterConfig(replication_factor=3, degraded_reads=True)
    )
    cluster.frontend.filterset = LearningBloom(capacity=256)
    identifier = cluster.claim_photo("degraded-clean")
    for shard_id in cluster.frontend.replicas_for(identifier):
        cluster.transport.kill(shard_id)
    answer = _status_unfiltered(cluster, identifier)
    assert answer.degraded
    assert not answer.revoked  # filter miss: definitively not revoked


def test_degraded_read_without_any_filter_is_maximally_conservative():
    cluster = LocalCluster(
        config=ClusterConfig(replication_factor=3, degraded_reads=True)
    )
    identifier = cluster.claim_photo("no-filter")
    for shard_id in cluster.frontend.replicas_for(identifier):
        cluster.transport.kill(shard_id)
    answer = _status_unfiltered(cluster, identifier)
    assert answer.degraded and answer.revoked


# -- deadline attribution ------------------------------------------------------


@pytest.mark.parametrize("budget, cause", [(5e-5, "deadline"), (0.03, "quorum")])
def test_quorum_failure_with_the_budget_spent_is_a_deadline_answer(budget, cause):
    """Replica RPC timers and the backstop expire together: same verdict."""
    cluster = LocalCluster(config=ClusterConfig(replication_factor=3))
    identifier = cluster.claim_photo("spent")
    for shard_id in cluster.frontend.replicas_for(identifier):
        cluster.transport.kill(shard_id)
    box = []
    cluster.frontend.status_async(
        identifier, box.append, deadline=Deadline.after(cluster.clock(), budget)
    )
    assert not box[0].ok and box[0].cause == cause


# -- circuit breakers ----------------------------------------------------------


def test_open_breakers_divert_reads_to_the_degraded_path():
    cluster = LocalCluster(
        config=ClusterConfig(
            replication_factor=3,
            breaker_threshold=1,
            degraded_reads=True,
        )
    )
    cluster.frontend.filterset = LearningBloom(capacity=256)
    identifier = cluster.claim_photo("breaker")
    replicas = cluster.frontend.replicas_for(identifier)
    for shard_id in replicas:
        cluster.transport.kill(shard_id)
    first = _status_unfiltered(cluster, identifier)
    assert first.degraded
    # Every replica breaker is now open: the next read is refused
    # before any shard I/O happens.
    lookups_before = cluster.frontend.stats.shard_lookups
    second = _status_unfiltered(cluster, identifier)
    assert second.degraded
    assert cluster.frontend.stats.shard_lookups == lookups_before
    assert sorted(cluster.frontend.breakers.open_targets()) == sorted(replicas)


# -- hinted handoff ------------------------------------------------------------


def test_hinted_handoff_repairs_the_replica_a_write_missed():
    cluster = LocalCluster(
        config=ClusterConfig(
            replication_factor=3, write_quorum=2, hinted_handoff=True
        )
    )
    identifier = cluster.claim_photo("handoff")
    victim = cluster.frontend.replicas_for(identifier)[0]
    cluster.transport.kill(victim)
    cluster.frontend.revoke(identifier, cluster.owner)
    assert cluster.frontend.hints.pending(victim) >= 1
    # While down, the victim still holds the unrevoked claim.
    record = cluster.shards[victim].ledger.store.get(identifier.serial)
    assert record.state is RevocationState.NOT_REVOKED

    cluster.transport.revive(victim)
    cluster.frontend.hints.replay_all()
    assert cluster.frontend.hints.pending() == 0
    assert cluster.frontend.hints.drained_at is not None
    record = cluster.shards[victim].ledger.store.get(identifier.serial)
    assert record.state is RevocationState.REVOKED
    assert record.revocation_epoch == 1


def test_hints_coalesce_to_the_newest_epoch():
    cluster = LocalCluster(
        config=ClusterConfig(
            replication_factor=3, write_quorum=2, hinted_handoff=True
        )
    )
    identifier = cluster.claim_photo("coalesce")
    victim = cluster.frontend.replicas_for(identifier)[0]
    cluster.transport.kill(victim)
    cluster.frontend.revoke(identifier, cluster.owner)  # epoch 1
    cluster.frontend.unrevoke(identifier, cluster.owner)  # epoch 2
    assert cluster.frontend.hints.pending(victim) == 1  # coalesced
    cluster.transport.revive(victim)
    cluster.frontend.hints.replay_all()
    record = cluster.shards[victim].ledger.store.get(identifier.serial)
    assert record.state is RevocationState.NOT_REVOKED
    assert record.revocation_epoch == 2


# -- anti-entropy --------------------------------------------------------------


def test_sweep_restores_a_wiped_replica():
    cluster = LocalCluster(config=ClusterConfig(replication_factor=3))
    identifiers = [cluster.claim_photo(f"sweep-{i}") for i in range(8)]
    for identifier in identifiers[:4]:
        cluster.frontend.revoke(identifier, cluster.owner)
    victim = cluster.frontend.replicas_for(identifiers[0])[0]
    held_before = len(cluster.shards[victim].ledger.store)
    assert cluster.shards[victim].ledger.store.wipe() == held_before

    sweeper = AntiEntropySweeper(
        "cluster", cluster.ring, cluster.transport, replication_factor=3
    )
    report = sweeper.sweep()
    assert report.complete
    assert report.push_failures == 0
    assert report.records_pushed >= held_before
    store = cluster.shards[victim].ledger.store
    assert len(store) == held_before
    # Restored records carry the revocation state, not just the claim.
    for identifier in identifiers[:4]:
        replicas = cluster.frontend.replicas_for(identifier)
        if victim in replicas:
            assert store.get(identifier.serial).is_revoked


def test_sweep_is_idempotent_and_reports_consistency():
    cluster = LocalCluster(config=ClusterConfig(replication_factor=3))
    for i in range(4):
        cluster.claim_photo(f"idempotent-{i}")
    sweeper = AntiEntropySweeper(
        "cluster", cluster.ring, cluster.transport, replication_factor=3
    )
    first = sweeper.sweep()
    second = sweeper.sweep()
    assert second.records_pushed == 0
    assert second.already_consistent == second.serials_scanned
    assert first.serials_scanned == second.serials_scanned


def test_sweep_skips_unreachable_shards_without_failing():
    cluster = LocalCluster(config=ClusterConfig(replication_factor=3))
    cluster.claim_photo("partial")
    cluster.transport.kill("shard-0")
    sweeper = AntiEntropySweeper(
        "cluster", cluster.ring, cluster.transport, replication_factor=3
    )
    report = sweeper.sweep()
    assert not report.complete
    assert report.unreachable == ["shard-0"]


# -- config validation (satellite) ---------------------------------------------


def test_read_quorum_above_replication_factor_names_both_numbers():
    with pytest.raises(ValueError, match=r"read_quorum 4 cannot exceed "
                                         r"replication_factor 3"):
        ClusterConfig(replication_factor=3, read_quorum=4).resolved()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(request_deadline=0.0),
        dict(max_retries=-1),
        dict(backoff_base=0.0),
        dict(backoff_cap=0.001, backoff_base=0.01),
        dict(breaker_threshold=0),
        dict(breaker_reset_timeout=0.0),
        dict(shed_rate=0.0),
        dict(shed_burst=0),
        dict(hint_replay_interval=0.0),
    ],
)
def test_resilience_knobs_are_validated(kwargs):
    with pytest.raises(ValueError):
        ClusterConfig(**kwargs).resolved()


def test_resolved_defaults_preserve_legacy_semantics():
    cfg = ClusterConfig().resolved()
    assert cfg.request_deadline is None
    assert cfg.max_retries == 0
    assert cfg.breaker_threshold is None
    assert cfg.shed_rate is None
    assert not cfg.degraded_reads
    assert not cfg.hinted_handoff
