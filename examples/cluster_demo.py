#!/usr/bin/env python3
"""The sharded ledger cluster, end to end.

Stands up a 4-shard, 3-way-replicated cluster on the in-process
transport and drives a full photo lifecycle through the batching
frontend: claim -> label -> validate -> revoke -> validate, then kills
a replica to show quorum reads, challenge failover and read repair
keeping the revocation state correct throughout.

    python examples/cluster_demo.py
"""

from repro.cluster import ClusterConfig, LocalCluster
from repro.core.validation import ValidationPolicy, Validator
from repro.crypto.signatures import KeyPair
from repro.media.image import generate_photo


def main() -> None:
    print("=== 1. Stand up the cluster ===")
    cluster = LocalCluster(
        4,
        config=ClusterConfig(replication_factor=3),
        seed=2022,
        failure_threshold=2,
        probation=5.0,
    )
    frontend, shards = cluster.frontend, cluster.shards
    print(f"  {len(shards)} shards, replication factor 3, one frontend")

    print("\n=== 2. Claim a photo through the frontend ===")
    owner = KeyPair.generate(bits=512, rng=cluster.rngs.stream("owner"))
    photo = generate_photo(seed=7, height=96, width=96)
    content_hash = photo.content_hash()
    identifier = frontend.claim(
        content_hash, owner.sign(content_hash.encode("utf-8")), owner.public
    )
    replicas = frontend.replicas_for(identifier)
    print(f"  identifier: {identifier} (serial derived from content)")
    print(f"  replicas:   {', '.join(replicas)}")

    print("\n=== 3. Label and validate against the cluster ===")
    photo.metadata.irs_identifier = identifier.to_string()
    validator = Validator(
        status_source=frontend.status_proof,
        policy=ValidationPolicy.viewing(),
    )
    result = validator.validate(photo)
    print(f"  decision: {result.decision.value} ({result.detail})")
    assert result.allowed

    print("\n=== 4. Revoke; a quorum of replicas flips ===")
    verdict = frontend.revoke(identifier, owner)
    print(f"  verdict: {verdict}")
    result = validator.validate(photo)
    print(f"  decision: {result.decision.value}")
    assert not result.allowed

    print("\n=== 5. Kill a replica; answers stay correct ===")
    victim = replicas[0]
    cluster.kill_shard(victim)
    answer = frontend.status(identifier)
    print(f"  {victim} down -> revoked={answer.revoked} "
          f"(answered by {answer.answered_by}, epoch {answer.epoch})")
    assert answer.revoked
    print(f"  proof verifies against the directory: "
          f"{cluster.directory.verify(answer.proof)}")

    print("\n=== 6. Unrevoke while the replica is still down ===")
    verdict = frontend.unrevoke(identifier, owner)
    print(f"  verdict: {verdict} "
          f"(challenge failed over {frontend.stats.failovers} time(s))")
    result = validator.validate(photo)
    print(f"  decision: {result.decision.value}")
    assert result.allowed

    print("\n=== 7. Revive; the next quorum read repairs it ===")
    cluster.revive_shard(victim)
    stale_epoch = shards[victim].ledger.store.get(identifier.serial).revocation_epoch
    frontend.status(identifier)
    healed_epoch = shards[victim].ledger.store.get(identifier.serial).revocation_epoch
    print(f"  {victim} epoch: {stale_epoch} -> {healed_epoch} "
          f"({frontend.stats.read_repairs} read repair(s))")
    assert healed_epoch > stale_epoch

    print(f"\nfrontend stats: {frontend.stats}")
    print("cluster lifecycle complete.")


if __name__ == "__main__":
    main()
