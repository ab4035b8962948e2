"""Shared fixtures for cluster tests: a synchronous local cluster."""

import pytest

from repro.cluster import ClusterConfig, LocalShardTransport
from repro.cluster import LocalCluster as LocalAssembly
from repro.crypto.hashing import sha256_hex
from repro.crypto.signatures import KeyPair


class HeldTransport(LocalShardTransport):
    """The local transport, with replies that wait for the test.

    While ``hold`` is off it is the synchronous transport (set-up).
    While it is on every call is parked, and ``deliver(shard_id)`` runs
    that shard's oldest parked call for real -- a killed shard answers
    "shard down" -- so a test picks the order a read's replies arrive
    in.  ``log`` keeps every ``(shard_id, method, payload)`` invoked.
    """

    def __init__(self, shards):
        super().__init__(shards)
        self.hold = False
        self.held = []  # (shard_id, method, payload, callback)
        self.log = []

    def invoke(self, shard_id, method, payload, callback, timeout=None):
        self.log.append((shard_id, method, payload))
        if self.hold:
            self.held.append((shard_id, method, payload, callback))
        else:
            super().invoke(shard_id, method, payload, callback, timeout)

    def deliver(self, shard_id):
        """Run the oldest call parked for ``shard_id``."""
        self.land(next(call for call in self.held if call[0] == shard_id))

    def land(self, call):
        """Run one parked call (an entry of ``held``) now."""
        self.held.remove(call)
        super().invoke(*call)

    def signed_flags(self):
        """The ``signed`` flag of every status lookup sent so far."""
        return [
            flag
            for _, method, payload in self.log
            if method == "status"
            for flag in payload["signed"]
        ]


def signatures(shards):
    """Status proofs signed so far by ``shards``."""
    return sum(shard.ledger.status_queries_served for shard in shards)


class LocalCluster(LocalAssembly):
    """The local assembly plus one photo owner, for unit tests."""

    def __init__(
        self,
        num_shards: int = 4,
        config: ClusterConfig = None,
        seed: int = 0,
        failure_threshold: int = 2,
        probation: float = 5.0,
        obs=None,
    ):
        super().__init__(
            num_shards,
            config=config,
            seed=seed,
            failure_threshold=failure_threshold,
            probation=probation,
            obs=obs,
        )
        self.owner = KeyPair.generate(bits=512, rng=self.rngs.stream("owner"))

    def claim_photo(self, label: str = "photo"):
        """Claim one synthetic photo; returns its identifier."""
        content_hash = sha256_hex(f"cluster:{label}".encode("utf-8"))
        signature = self.owner.sign(content_hash.encode("utf-8"))
        return self.frontend.claim(content_hash, signature, self.owner.public)


@pytest.fixture
def local_cluster():
    return LocalCluster()
