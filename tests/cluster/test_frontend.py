"""Frontend coordination: claims, quorum status, revocation, repair."""

import pytest

from repro.cluster import Cluster, ClusterConfig, ClusterFrontend, content_serial
from repro.cluster.writes import Revocation
from repro.core.errors import ClaimError, LedgerUnavailableError, RevocationError
from repro.crypto.hashing import sha256_hex
from repro.obs import Observability

from tests.cluster.conftest import HeldTransport, LocalCluster, signatures


class TestClaims:
    def test_claim_places_records_on_all_replicas(self, local_cluster):
        identifier = local_cluster.claim_photo()
        replicas = local_cluster.frontend.replicas_for(identifier)
        assert len(replicas) == 3
        for shard_id in replicas:
            store = local_cluster.shards[shard_id].ledger.store
            assert identifier.serial in store

    def test_serial_is_content_derived(self, local_cluster):
        identifier = local_cluster.claim_photo("pic-a")
        content_hash = sha256_hex(b"cluster:pic-a")
        assert identifier.serial == content_serial(content_hash)
        assert identifier.ledger_id == "cluster"

    def test_claim_is_idempotent(self, local_cluster):
        first = local_cluster.claim_photo("dup")
        second = local_cluster.claim_photo("dup")
        assert first == second
        assert local_cluster.frontend.stats.claims == 2

    def test_claim_fails_without_write_quorum(self, local_cluster):
        identifier = local_cluster.claim_photo("probe")
        for shard_id in local_cluster.frontend.replicas_for(identifier)[:2]:
            local_cluster.transport.kill(shard_id)
        with pytest.raises(ClaimError):
            local_cluster.claim_photo("probe")  # same placement, quorum dead


class TestStatus:
    def test_claimed_photo_reads_not_revoked(self, local_cluster):
        identifier = local_cluster.claim_photo()
        answer = local_cluster.frontend.status(identifier)
        assert answer.ok and not answer.revoked
        assert answer.source == "shard"
        assert answer.epoch == 0
        assert local_cluster.directory.verify(answer.proof)

    def test_status_survives_one_dead_replica(self, local_cluster):
        identifier = local_cluster.claim_photo()
        local_cluster.frontend.revoke(identifier, local_cluster.owner)
        local_cluster.transport.kill(
            local_cluster.frontend.replicas_for(identifier)[0]
        )
        answer = local_cluster.frontend.status(identifier)
        assert answer.ok and answer.revoked and answer.epoch == 1

    def test_status_fail_safe_without_quorum(self, local_cluster):
        identifier = local_cluster.claim_photo()
        for shard_id in local_cluster.frontend.replicas_for(identifier)[:2]:
            local_cluster.transport.kill(shard_id)
        answer = local_cluster.frontend.status(identifier)
        assert not answer.ok
        assert answer.revoked  # fail-safe verdict
        with pytest.raises(LedgerUnavailableError):
            local_cluster.frontend.status_proof(identifier)

    def test_status_proof_feeds_validators(self, local_cluster):
        identifier = local_cluster.claim_photo()
        proof = local_cluster.frontend.status_proof(identifier)
        assert not proof.revoked
        assert local_cluster.directory.verify(proof)

    def test_filter_short_circuit(self):
        class NeverRevoked:
            def might_be_revoked(self, compact):
                return False

        cluster = LocalCluster()
        cluster.frontend.filterset = NeverRevoked()
        identifier = cluster.claim_photo()
        answer = cluster.frontend.status(identifier)
        assert answer.source == "filter" and not answer.revoked
        assert cluster.frontend.stats.filter_short_circuits == 1
        # Validators bypass the filter and still get a signed proof.
        assert cluster.frontend.status_proof(identifier) is not None


class TestVerdictReads:
    """``proof=False``: the same quorum read, minus its last stage."""

    # (replicas at epoch 1, dead replicas, the arrivals that make the
    # quorum, whether a proof read must then fetch), the first three as
    # ring-order indices; 0 is the replica a proof read names as signer.
    SCENARIOS = {
        "healthy": ((0, 1, 2), (), (0, 1), False),
        "signer stale by one epoch": ((1, 2), (), (0, 1), True),
        "signer dead": ((0, 1, 2), (0,), (0, 1, 2), True),
        "signer slowest of three": ((0, 1), (), (1, 2), True),
    }

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("proof", [False, True])
    def test_only_a_proof_read_names_a_signer_or_fetches(self, scenario, proof):
        revoked_on, dead, first, fetches = self.SCENARIOS[scenario]
        cluster = Cluster(
            3, clock=lambda: 0.0, scheduler=None,
            transport_factory=HeldTransport, seed=5,
        )
        identifier = cluster.seed_population(1).identifiers[0]
        replicas = cluster.frontend.replicas_for(identifier)
        for index in revoked_on:
            cluster.shards[replicas[index]].apply_state(
                {"serial": identifier.serial, "state": "revoked", "epoch": 1}
            )
        for index in dead:
            cluster.kill_shard(replicas[index])
        stale = [r for i, r in enumerate(replicas) if i not in revoked_on]
        transport, stats = cluster.transport, cluster.frontend.stats
        transport.hold = True

        answers = []
        cluster.frontend.status_async(identifier, answers.append, proof=proof)
        assert transport.signed_flags() == [proof, False, False]
        for index in first:
            assert not answers
            transport.deliver(replicas[index])
        if proof and fetches:
            # The quorum is in without a proof at epoch 1: one fetch,
            # from a quorum member at that epoch, completes the read.
            assert not answers
            fetch = transport.held[-1]
            assert fetch[2] == {"serials": [identifier.serial], "signed": [True]}
            transport.land(fetch)
        assert stats.signed_reads == int(proof)
        assert stats.proof_fetches == int(proof and fetches)
        (answer,) = answers
        assert answer.ok and answer.source == "shard" and stats.retries == 0
        assert (answer.revoked, answer.state, answer.epoch) == (True, "revoked", 1)
        assert answer.answered_by in [
            replicas[i] for i in first if i in revoked_on and i not in dead
        ]
        if proof:
            assert cluster.directory.verify(answer.proof)
            assert answer.proof.revoked
        else:
            assert answer.proof is None
            assert signatures(cluster.shards.values()) == 0
        # Stragglers land; whoever answered below epoch 1 is repaired.
        while transport.held:
            transport.land(transport.held[0])
        assert stats.read_repairs == len(stale)
        for shard_id in stale:
            record = cluster.shards[shard_id].ledger.store.get(identifier.serial)
            assert record.revocation_epoch == 1 and record.is_revoked


class TestRevocation:
    def test_revoke_and_unrevoke_bump_epochs(self, local_cluster):
        identifier = local_cluster.claim_photo()
        verdict = local_cluster.frontend.revoke(identifier, local_cluster.owner)
        assert verdict == {"state": "revoked", "epoch": 1}
        assert local_cluster.frontend.status(identifier).revoked
        verdict = local_cluster.frontend.unrevoke(identifier, local_cluster.owner)
        assert verdict == {"state": "not_revoked", "epoch": 2}
        assert not local_cluster.frontend.status(identifier).revoked

    def test_revocation_reaches_every_replica(self, local_cluster):
        identifier = local_cluster.claim_photo()
        local_cluster.frontend.revoke(identifier, local_cluster.owner)
        for shard_id in local_cluster.frontend.replicas_for(identifier):
            record = local_cluster.shards[shard_id].ledger.store.get(
                identifier.serial
            )
            assert record.revocation_epoch == 1

    def test_challenge_fails_over_a_dead_coordinator(self):
        obs = Observability()
        cluster = LocalCluster(obs=obs)
        identifier = cluster.claim_photo()
        primary = cluster.frontend.replicas_for(identifier)[0]
        cluster.transport.kill(primary)
        verdict = cluster.frontend.revoke(identifier, cluster.owner)
        assert verdict["state"] == "revoked"
        # One coordinator failover, visible in the stats and on /metrics.
        assert cluster.frontend.stats.failovers == 1
        assert obs.metrics.value("frontend_failovers_total") == 1

    @pytest.mark.parametrize("elapsed", [1.0, 10.0])
    def test_each_replica_is_a_coordinator_candidate_once(
        self, local_cluster, elapsed
    ):
        """Inside probation a suspect is tried last; past it, its probe is one try."""
        identifier = local_cluster.claim_photo()
        frontend = local_cluster.frontend
        replicas = frontend.replicas_for(identifier)
        for _ in range(2):  # the fixture's failure threshold
            frontend.detector.record(replicas[0], ok=False)
        local_cluster.manual_clock.advance(elapsed)  # probation is 5 s
        candidates = Revocation(
            frontend, identifier, local_cluster.owner, lambda *_: None, "revoke"
        ).candidates
        assert sorted(candidates) == sorted(replicas)
        if elapsed < 5.0:
            assert candidates == replicas[1:] + replicas[:1]

    def test_revocation_needs_all_replicas_dead_to_fail(self, local_cluster):
        identifier = local_cluster.claim_photo()
        for shard_id in local_cluster.frontend.replicas_for(identifier):
            local_cluster.transport.kill(shard_id)
        with pytest.raises(RevocationError):
            local_cluster.frontend.revoke(identifier, local_cluster.owner)


class TestReadRepair:
    def test_quorum_read_heals_a_stale_replica(self, local_cluster):
        identifier = local_cluster.claim_photo()
        replicas = local_cluster.frontend.replicas_for(identifier)
        victim = replicas[-1]
        local_cluster.transport.kill(victim)
        local_cluster.frontend.revoke(identifier, local_cluster.owner)
        stale = local_cluster.shards[victim].ledger.store.get(identifier.serial)
        assert stale.revocation_epoch == 0  # missed the write
        local_cluster.transport.revive(victim)
        answer = local_cluster.frontend.status(identifier)
        assert answer.revoked and answer.epoch == 1
        assert local_cluster.frontend.stats.read_repairs >= 1
        healed = local_cluster.shards[victim].ledger.store.get(identifier.serial)
        assert healed.revocation_epoch == 1
        assert local_cluster.shards[victim].states_applied >= 1


class TestBackpressure:
    def test_inflight_window_bounds_outstanding_batches(self):
        """Overload queues at the frontend instead of flooding shards."""
        from repro.cluster import SimulatedCluster

        cluster = SimulatedCluster(
            num_shards=4,
            config=ClusterConfig(replication_factor=3),
            seed=11,
        )
        cluster.frontend.batcher.max_batch = 4
        cluster.frontend.batcher.max_inflight = 2
        population = cluster.seed_population(80, revoked_fraction=0.3)
        answers = []
        for identifier in population.identifiers:
            cluster.simulator.schedule_at(
                0.0, cluster.frontend.status_async, identifier, answers.append
            )
        cluster.simulator.run(until=30.0)
        stats = cluster.frontend.stats

        # Every query completes: the window delays batches, never drops
        # them.
        assert len(answers) == population.size
        assert all(a.ok for a in answers)
        # The window held: never more than max_inflight outstanding
        # RPCs, and the excess visibly queued.
        assert stats.peak_inflight <= 2
        assert stats.throttled > 0
        # No residual growth: the queues fully drained.
        assert cluster.frontend.batcher.inflight == 0
        assert cluster.frontend.batcher.pending == 0

    def test_bloom_precheck_never_masks_a_revoked_record(self):
        """Filter short-circuits are safe: no false negatives, ever."""
        from repro.ledger.export import FilterExporter
        from repro.proxy.filterset import ProxyFilterSet

        cluster = LocalCluster(
            num_shards=1, config=ClusterConfig(replication_factor=1)
        )
        identifiers = [cluster.claim_photo(f"p{i}") for i in range(12)]
        revoked = identifiers[:5]
        for identifier in revoked:
            cluster.frontend.revoke(identifier, cluster.owner)

        shard = next(iter(cluster.shards.values()))
        exporter = FilterExporter(shard.ledger, nbits=4096, num_hashes=4)
        exporter.publish()
        filterset = ProxyFilterSet()
        filterset.subscribe(exporter)
        filterset.refresh()
        cluster.frontend.filterset = filterset

        # Every record revoked at publish time hits the filter and gets
        # the authoritative shard answer — the pre-check cannot mask it.
        for identifier in revoked:
            answer = cluster.frontend.status(identifier)
            assert answer.revoked and answer.source == "shard"
        # Valid records still flow (filter or shard, both answer false).
        for identifier in identifiers[5:]:
            answer = cluster.frontend.status(identifier)
            assert answer.ok and not answer.revoked
        assert cluster.frontend.stats.filter_short_circuits >= 1

        # A revocation after the snapshot is invisible until the next
        # refresh closes the staleness window.
        late = identifiers[-1]
        cluster.frontend.revoke(late, cluster.owner)
        exporter.publish()
        filterset.refresh()
        answer = cluster.frontend.status(late)
        assert answer.revoked and answer.source == "shard"


class TestConfig:
    def test_quorums_default_to_majorities(self):
        cfg = ClusterConfig(replication_factor=5).resolved()
        assert cfg.write_quorum == 3 and cfg.read_quorum == 3
        solo = ClusterConfig(replication_factor=1).resolved()
        assert solo.write_quorum == solo.read_quorum == 1

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(replication_factor=0).resolved()
        with pytest.raises(ValueError):
            ClusterConfig(replication_factor=3, read_quorum=4).resolved()

    def test_replication_cannot_exceed_ring(self):
        cluster = LocalCluster(
            num_shards=2, config=ClusterConfig(replication_factor=2)
        )
        with pytest.raises(ValueError):
            ClusterFrontend(
                "cluster",
                cluster.ring,
                cluster.transport,
                cluster.tsa,
                config=ClusterConfig(replication_factor=3),
            )

    def test_batching_stats_accumulate(self, local_cluster):
        for i in range(4):
            local_cluster.frontend.status(local_cluster.claim_photo(f"p{i}"))
        stats = local_cluster.frontend.stats
        assert stats.queries == 4
        assert stats.batches_sent > 0
        assert stats.batch_items == stats.shard_lookups
        assert stats.batch_items >= stats.batches_sent
