"""The one cluster assembly: shards, ring, detector, frontend.

Every way this repo stands the section 3.2 ledger service up — inside
the discrete-event simulator, on an asyncio event loop, or synchronously
in-process — is the same wiring over three injected parts: a ``clock``,
a ``scheduler`` and a transport.  :class:`Cluster` owns that wiring and
everything that follows from it (seeded population, crash/restart
faults, replica inspection); the adapters only say how time passes and
how a request reaches a shard:

* :class:`LocalCluster` (here) — :class:`LocalShardTransport`, a
  hand-advanced :class:`~repro.netsim.simulator.ManualClock`, no
  scheduler: every call completes before it returns.
* :class:`~repro.cluster.simnet.SimulatedCluster` — netsim nodes and
  RPC endpoints on simulated time.
* :class:`~repro.service.cluster.LiveCluster` — the running event
  loop's ``time`` / ``call_later``.

All randomness derives from one seed through named
:class:`~repro.netsim.rand.RngRegistry` streams (``"tsa"``,
``"key:<shard>"``, ``"resilience"``, ``"population"``, ``"storage"``),
so the same seed builds the same keys and the same population under
every adapter.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.identifiers import PhotoIdentifier
from repro.crypto.hashing import sha256_hex
from repro.crypto.signatures import KeyPair
from repro.crypto.timestamp import TimestampAuthority
from repro.filters.bloom import BloomFilter
from repro.ledger.durable import DurableStore
from repro.ledger.events import replay
from repro.ledger.records import ClaimRecord, RevocationState, claim_digest
from repro.ledger.recovery import records_digest
from repro.netsim.rand import RngRegistry
from repro.netsim.simulator import ManualClock
from repro.cluster.antientropy import AntiEntropySweeper
from repro.cluster.frontend import ClusterConfig, ClusterFrontend
from repro.cluster.health import FailureDetector
from repro.cluster.replication import LocalShardTransport, ShardTransport
from repro.cluster.ring import HashRing
from repro.cluster.shard import ClusterDirectory, ClusterShard, content_serial

__all__ = [
    "Cluster",
    "ClusterPopulation",
    "LearningBloom",
    "LocalCluster",
    "ShardRecovery",
]

# RSA modulus of every key an assembly generates (TSA, shards, seeded
# owners): small for speed, and seeded, so runs reproduce.
KEY_BITS = 512


class LearningBloom:
    """A frontend-side Bloom filter of revoked identifiers.

    The degraded-read fallback: seeded with the initially revoked
    population and *learning* — the frontend inserts every revocation
    it acks via its ``add`` hook, which is what keeps degraded answers
    fail-closed with respect to acknowledged revocations.  False
    positives err toward "revoked" (safe); false negatives are bounded
    by the sizing formula and by the checker's ``fail_open`` invariant.
    """

    def __init__(self, capacity: int = 8192):
        self._filter = BloomFilter.for_capacity(capacity, 0.01)
        self.added = 0

    def might_be_revoked(self, compact_identifier: bytes) -> bool:
        return compact_identifier in self._filter

    def might_be_revoked_many(self, compact_identifiers) -> np.ndarray:
        """Batch verdicts (entry ``i`` == the scalar probe for key ``i``)."""
        return self._filter.query_many(compact_identifiers)

    def add(self, compact_identifier: bytes) -> None:
        self._filter.add(compact_identifier)
        self.added += 1


@dataclass
class ClusterPopulation:
    """Ground truth for a seeded cluster population."""

    identifiers: List[PhotoIdentifier]
    revoked_mask: np.ndarray
    # The key pair every seeded claim was signed with — lets workloads
    # revoke seeded records through the real ownership proof.
    owner: KeyPair

    @property
    def size(self) -> int:
        return len(self.identifiers)

    def revoked(self, index: int) -> bool:
        return bool(self.revoked_mask[index])


@dataclass(frozen=True)
class ShardRecovery:
    """One shard restart's recovery outcome, captured at restart time.

    The cluster keeps evolving after a recovery (read repair,
    anti-entropy), so the consistency checker needs the state *as
    recovered*, not as it ended up: ``installed_digest`` is what the
    shard adopted, ``replayed_digest`` an independent snapshot+tail
    replay of the same report — the "recovered state equals replayed
    log" invariant in digest form.
    """

    shard_id: str
    at: float
    evidence: tuple
    installed_digest: str
    replayed_digest: str
    records_recovered: int
    events_replayed: int


class Cluster:
    """Shards + ring + detector + frontend over an injected transport.

    Parameters
    ----------
    num_shards / config:
        Ring size and replication/resilience configuration.
    clock / scheduler:
        The time base (``clock() -> seconds``) and its timer
        (``scheduler(delay_s, callback)``); ``scheduler=None`` is the
        frontend's synchronous mode.
    transport_factory:
        ``transport_factory(shards) -> ShardTransport``, called once
        with the built ``{shard_id: ClusterShard}`` map.  The transport
        also carries the crash hooks (``kill`` / ``revive``), because
        what a dead shard looks like is a property of the wire.
    seed:
        Root seed; keys, backoff jitter, population and storage faults
        all derive from it through :attr:`rngs`.
    shard_clock:
        ``shard_clock(shard_id) -> clock`` for adapters whose shards
        read individually skewable clocks; default: the shared clock.
    durable:
        Give every shard a simulated disk: its event chain is written
        to the disk's WAL, snapshotted every ``snapshot_interval``
        events, and :meth:`restart_shard` recovers from it.
    obs:
        Optional :class:`~repro.obs.Observability` handed to the
        frontend and the recovery counters.
    """

    def __init__(
        self,
        num_shards: int,
        clock: Callable[[], float],
        scheduler: Optional[Callable[[float, Callable[[], None]], None]],
        transport_factory: Callable[[Dict[str, ClusterShard]], ShardTransport],
        config: Optional[ClusterConfig] = None,
        seed: int = 0,
        cluster_id: str = "cluster",
        failure_threshold: int = 3,
        probation: float = 10.0,
        filterset=None,
        obs=None,
        durable: bool = False,
        snapshot_interval: int = 64,
        shard_clock: Optional[Callable[[str], Callable[[], float]]] = None,
    ):
        if num_shards < 1:
            raise ValueError("need at least one shard")
        self.cluster_id = cluster_id
        self.clock = clock
        self.obs = obs
        self.rngs = RngRegistry(seed=seed)
        self.tsa = TimestampAuthority(
            keypair=KeyPair.generate(bits=KEY_BITS, rng=self.rngs.stream("tsa")),
            clock=clock,
        )
        self.shards: Dict[str, ClusterShard] = {}
        self.disks: Dict[str, DurableStore] = {}
        self.recoveries: List[ShardRecovery] = []
        shard_ids = [f"shard-{i}" for i in range(num_shards)]
        for shard_id in shard_ids:
            if durable:
                self.disks[shard_id] = DurableStore(snapshot_interval)
            self.shards[shard_id] = ClusterShard(
                shard_id,
                cluster_id,
                self.tsa,
                keypair=KeyPair.generate(
                    bits=KEY_BITS, rng=self.rngs.stream(f"key:{shard_id}")
                ),
                clock=shard_clock(shard_id) if shard_clock else clock,
                durable=self.disks.get(shard_id),
            )
        self.ring = HashRing(shard_ids)
        self.directory = ClusterDirectory(list(self.shards.values()))
        self.transport = transport_factory(self.shards)
        self.detector = FailureDetector(
            clock, failure_threshold=failure_threshold, probation=probation
        )
        self.frontend = ClusterFrontend(
            cluster_id,
            self.ring,
            self.transport,
            self.tsa,
            detector=self.detector,
            config=config,
            clock=clock,
            scheduler=scheduler,
            filterset=filterset,
            rng=self.rngs.stream("resilience"),
            obs=obs,
        )

    # -- faults -------------------------------------------------------------------

    def kill_shard(self, shard_id: str) -> None:
        """Crash a shard; how callers find out is the transport's."""
        self.transport.kill(shard_id)

    def revive_shard(self, shard_id: str) -> None:
        self.transport.revive(shard_id)

    def restart_shard(self, shard_id: str, wipe: bool = False) -> int:
        """Bring a crashed shard back, with its state kept or lost.

        ``wipe=True`` models a crash that took the disk: memory *and*
        the durable store are lost, and the replica rejoins empty to be
        refilled by re-replication and read repair.  Otherwise, a shard
        with a durable store runs the real restart path — snapshot
        load, chain verification, tail replay, disk truncation — and
        the recovery outcome (including an independently replayed
        digest) is captured in :attr:`recoveries` for the consistency
        checker.  Returns the number of records lost from memory.
        """
        shard = self.shards[shard_id]
        disk = self.disks.get(shard_id)
        if wipe:
            lost = shard.ledger.store.wipe()
            self.revive_shard(shard_id)
            return lost
        if disk is not None:
            report = shard.recover()
            replayed = replay(
                report.tail_events, base=report.snapshot_records
            )
            if report.suffix_lost:
                self._schedule_backfill()
            self.recoveries.append(
                ShardRecovery(
                    shard_id=shard_id,
                    at=self.clock(),
                    evidence=report.evidence,
                    installed_digest=records_digest(
                        shard.ledger.store.records_map()
                    ),
                    replayed_digest=records_digest(replayed),
                    records_recovered=len(report.records),
                    events_replayed=len(report.tail_events),
                )
            )
            if self.obs is not None:
                self.obs.counter(
                    "shard_recoveries_total", shard=shard_id
                ).inc()
                self.obs.counter(
                    "recovery_records_restored_total", shard=shard_id
                ).inc(len(report.records))
                if report.evidence:
                    self.obs.counter(
                        "recovery_corruptions_total", shard=shard_id
                    ).inc(len(report.evidence))
        self.revive_shard(shard_id)
        return 0

    def sweeper(self) -> AntiEntropySweeper:
        """An anti-entropy sweeper over this cluster's ring and wire."""
        return AntiEntropySweeper(
            self.cluster_id,
            self.ring,
            self.transport,
            self.frontend.config.replication_factor,
            on_result=self.frontend.record_result,
            obs=self.obs,
        )

    def _schedule_backfill(self) -> None:
        """Hinted-handoff stand-in after a recovery shed log suffix.

        A truncated replica holds *convincingly stale* state (old
        epochs, not missing records), so quorum reads through it can
        observe pre-acknowledgement state until something reconciles
        it.  Scheduling an anti-entropy sweep right behind the restart
        pulls the lost writes back from peers promptly instead of
        waiting for the next externally scheduled sweep.
        """
        sweeper = self.sweeper()
        self.frontend.later(
            0.05, lambda: sweeper.sweep_async(lambda report: None)
        )

    def inject_storage_fault(self, shard_id: str, kind: str) -> bool:
        """Damage a shard's durable store; True iff the fault landed.

        Kinds: ``torn`` (final WAL frame cut short), ``corrupt`` (one
        byte flipped past the newest snapshot's anchor), ``snapshot``
        (newest snapshot damaged).  A fault can miss — an empty disk has
        nothing to tear — and the checker only demands detection for
        faults that actually landed.
        """
        disk = self.disks.get(shard_id)
        if disk is None:
            return False
        if kind == "torn":
            return disk.tear_final_record()
        if kind == "corrupt":
            return disk.corrupt_random_byte(self.rngs.stream("storage"))
        if kind == "snapshot":
            return disk.corrupt_latest_snapshot()
        raise ValueError(f"unknown storage fault kind {kind!r}")

    # -- inspection ----------------------------------------------------------------

    def placement(self, serial: int) -> List[str]:
        """The replica group holding ``serial`` (the checker's map)."""
        return self.frontend.replicas_for(
            PhotoIdentifier(self.cluster_id, serial)
        )

    def replica_states(self) -> Dict[str, Dict[int, tuple]]:
        """Every replica's ``{serial: (state, epoch)}`` snapshot.

        The raw material for the chaos consistency checker's
        convergence verdict and for deterministic state digests.
        """
        return {
            shard_id: {
                record.identifier.serial: (
                    record.state.value,
                    record.revocation_epoch,
                )
                for record in shard.ledger.store.records()
            }
            for shard_id, shard in sorted(self.shards.items())
        }

    def chain_head(self) -> str:
        """Digest of every shard's event-chain head — the /bloom ETag.

        Any acknowledged mutation advances at least one shard's head,
        so the ETag changes iff the revocation set may have changed.
        """
        digest = blake2b(digest_size=16)
        for shard_id in sorted(self.shards):
            events = self.shards[shard_id].ledger.store.events
            digest.update(
                f"{shard_id}:{events.head_seq}:{events.head_hash};".encode()
            )
        return digest.hexdigest()

    def revoked_compact_keys(self) -> List[bytes]:
        """Union of revoked identifiers across replicas (deduplicated)."""
        seen: Dict[int, bytes] = {}
        for shard_id in sorted(self.shards):
            store = self.shards[shard_id].ledger.store
            for record in store.revoked_records():
                seen[record.identifier.serial] = record.identifier.to_compact()
        return [seen[serial] for serial in sorted(seen)]

    # -- population ----------------------------------------------------------------

    def seed_population(
        self, count: int, revoked_fraction: float = 0.0
    ) -> ClusterPopulation:
        """Install ``count`` synthetic claims directly on the replicas.

        The fast-path equivalent of
        :func:`repro.workload.population.populate_ledger` for clusters:
        one shared signature/timestamp object, real content-derived
        serials, real ring placement, real revocation state on every
        replica, and every born-revoked identifier fed to a filterset
        that can learn.  Load experiments start from here rather than
        paying per-record RSA through the wire.
        """
        if not 0.0 <= revoked_fraction <= 1.0:
            raise ValueError("revoked_fraction must be in [0, 1]")
        rng = self.rngs.stream("population")
        keypair = KeyPair.generate(bits=KEY_BITS, rng=rng)
        shared_hash = sha256_hex(f"{self.cluster_id}:bulk-shared".encode())
        shared_signature = keypair.sign(shared_hash.encode("utf-8"))
        shared_timestamp = self.tsa.issue(claim_digest(shared_hash, keypair.public))
        revoked_mask = rng.uniform(size=count) < revoked_fraction
        identifiers: List[PhotoIdentifier] = []
        r = self.frontend.config.replication_factor
        for i in range(count):
            content_hash = sha256_hex(f"{self.cluster_id}:photo:{i}".encode())
            serial = content_serial(content_hash)
            identifier = PhotoIdentifier(self.cluster_id, serial)
            revoked = bool(revoked_mask[i])
            for shard_id in self.ring.replicas(identifier.to_compact(), r):
                self.shards[shard_id].ledger.store.put(
                    ClaimRecord(
                        identifier=identifier,
                        content_hash=content_hash,
                        content_signature=shared_signature,
                        public_key=keypair.public,
                        timestamp=shared_timestamp,
                        state=(
                            RevocationState.REVOKED
                            if revoked
                            else RevocationState.NOT_REVOKED
                        ),
                        revocation_epoch=1 if revoked else 0,
                    )
                )
            if revoked:
                self.frontend.note_revoked(identifier)
            identifiers.append(identifier)
        return ClusterPopulation(
            identifiers=identifiers, revoked_mask=revoked_mask, owner=keypair
        )


class LocalCluster(Cluster):
    """The synchronous adapter: in-process transport, hand-advanced clock.

    Nothing is scheduled — every frontend call completes before it
    returns — and time only moves when the caller advances
    :attr:`manual_clock`.  A killed shard answers "shard down" at once
    (connection refused) rather than timing out.
    """

    def __init__(
        self,
        num_shards: int = 4,
        config: Optional[ClusterConfig] = None,
        seed: int = 0,
        **kwargs,
    ):
        self.manual_clock = ManualClock()
        super().__init__(
            num_shards,
            clock=self.manual_clock.now,
            scheduler=None,
            transport_factory=LocalShardTransport,
            config=config,
            seed=seed,
            **kwargs,
        )
