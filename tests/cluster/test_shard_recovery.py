"""Shard-level durability: the WAL, snapshots, crash recovery."""

import numpy as np

from repro.cluster import ClusterConfig, SimulatedCluster
from repro.ledger.recovery import records_digest


def _cluster(seed=11, **kwargs):
    kwargs.setdefault("config", ClusterConfig(replication_factor=3))
    kwargs.setdefault("rpc_timeout", 0.05)
    return SimulatedCluster(num_shards=3, seed=seed, **kwargs)


def _shard_digests(cluster):
    return {
        shard_id: records_digest(shard.ledger.store.records_map())
        for shard_id, shard in cluster.shards.items()
    }


class TestJournaling:
    def test_every_mutation_reaches_disk(self):
        cluster = _cluster()
        cluster.seed_population(60, revoked_fraction=0.25)
        for shard_id, shard in cluster.shards.items():
            disk = cluster.disks[shard_id]
            assert disk.events_written == shard.ledger.store.events.head_seq
            assert disk.events_written > 0

    def test_snapshots_ride_the_configured_cadence(self):
        cluster = _cluster(snapshot_interval=16)
        cluster.seed_population(60, revoked_fraction=0.25)
        for shard_id, shard in cluster.shards.items():
            disk = cluster.disks[shard_id]
            expected = shard.ledger.store.events.head_seq // 16
            assert disk.snapshots_written == expected

    def test_durable_false_runs_diskless(self):
        cluster = _cluster(durable=False)
        cluster.seed_population(20, revoked_fraction=0.25)
        assert all(disk is None for disk in cluster.disks.values())
        assert cluster.restart_shard("shard-0") == 0
        assert cluster.recoveries == []


class TestCrashRecovery:
    def test_restart_rebuilds_exact_state(self):
        cluster = _cluster(snapshot_interval=16)
        cluster.seed_population(60, revoked_fraction=0.25)
        before = _shard_digests(cluster)
        cluster.kill_shard("shard-1")
        cluster.restart_shard("shard-1")
        assert _shard_digests(cluster) == before
        (recovery,) = cluster.recoveries
        assert recovery.shard_id == "shard-1"
        assert recovery.evidence == ()
        assert recovery.installed_digest == recovery.replayed_digest

    def test_restart_resumes_the_chain(self):
        cluster = _cluster()
        population = cluster.seed_population(40, revoked_fraction=0.0)
        cluster.restart_shard("shard-0")
        shard = cluster.shards["shard-0"]
        head_before = shard.ledger.store.events.head_seq
        sim = cluster.simulator
        sim.schedule_at(
            0.1,
            cluster.frontend.revoke_async,
            population.identifiers[0],
            population.owner,
            lambda outcome, error: None,
        )
        sim.run(until=1.0)
        # Post-recovery appends extend the verified chain and the disk.
        for shard_id, shard in cluster.shards.items():
            disk = cluster.disks[shard_id]
            assert disk.events_written == shard.ledger.store.events.head_seq
        assert shard.ledger.store.events.verify_chain()
        assert shard.ledger.store.events.head_seq >= head_before

    def test_wipe_restart_loses_disk_and_memory(self):
        cluster = _cluster()
        cluster.seed_population(30, revoked_fraction=0.25)
        lost = cluster.restart_shard("shard-2", wipe=True)
        assert lost > 0
        assert cluster.disks["shard-2"].events_written == 0
        assert cluster.shards["shard-2"].ledger.store.counts()["total"] == 0


class TestInjectedFaults:
    def test_torn_disk_recovery_reports_evidence(self):
        cluster = _cluster()
        cluster.seed_population(60, revoked_fraction=0.25)
        assert cluster.inject_storage_fault("shard-0", "torn")
        cluster.restart_shard("shard-0")
        (recovery,) = cluster.recoveries
        assert recovery.evidence == ("torn_record",)
        # The invariant the checker enforces: what the shard adopted is
        # exactly the replay of what it could prove.
        assert recovery.installed_digest == recovery.replayed_digest
        # The disk was truncated back to the verified prefix.
        shard = cluster.shards["shard-0"]
        assert (
            cluster.disks["shard-0"].events_written
            == shard.ledger.store.events.head_seq
        )

    def test_suffix_loss_backfills_from_peers(self):
        cluster = _cluster(seed=5)
        population = cluster.seed_population(40, revoked_fraction=0.0)
        sim = cluster.simulator
        acked = []
        sim.schedule_at(
            0.1,
            cluster.frontend.revoke_async,
            population.identifiers[0],
            population.owner,
            lambda outcome, error: acked.append(error is None),
        )
        sim.run(until=0.5)
        assert acked == [True]
        # Tear every replica's final record, then restart one: its
        # recovery sheds the revoke, and the scheduled backfill sweep
        # must restore it from the peers.
        victim = cluster.ring.replicas(
            population.identifiers[0].to_compact(), 3
        )[0]
        cluster.kill_shard(victim)
        assert cluster.inject_storage_fault(victim, "torn")
        cluster.restart_shard(victim)
        recovery = cluster.recoveries[-1]
        assert recovery.evidence == ("torn_record",)
        sim.run(until=2.0)
        serial = population.identifiers[0].serial
        record = cluster.shards[victim].ledger.store.get(serial)
        assert record is not None and record.is_revoked

    def test_snapshot_fault_is_detection_only(self):
        cluster = _cluster(snapshot_interval=16)
        cluster.seed_population(60, revoked_fraction=0.25)
        before = _shard_digests(cluster)
        assert cluster.inject_storage_fault("shard-1", "snapshot")
        cluster.restart_shard("shard-1")
        (recovery,) = cluster.recoveries
        assert "snapshot_corrupt" in recovery.evidence
        assert _shard_digests(cluster) == before

    def test_corrupt_uses_the_named_rng_stream(self):
        cluster_a = _cluster(seed=9)
        cluster_b = _cluster(seed=9)
        for cluster in (cluster_a, cluster_b):
            cluster.seed_population(60, revoked_fraction=0.25)
            assert cluster.inject_storage_fault("shard-0", "corrupt")
            cluster.restart_shard("shard-0")
        assert (
            cluster_a.recoveries[-1].evidence
            == cluster_b.recoveries[-1].evidence
        )
        assert (
            cluster_a.recoveries[-1].installed_digest
            == cluster_b.recoveries[-1].installed_digest
        )
