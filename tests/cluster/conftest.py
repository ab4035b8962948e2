"""Shared fixtures for cluster tests: a synchronous local cluster."""

import pytest

from repro.cluster import ClusterConfig
from repro.cluster import LocalCluster as LocalAssembly
from repro.crypto.hashing import sha256_hex
from repro.crypto.signatures import KeyPair


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
