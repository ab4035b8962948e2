"""Horizontally scaled ledger service: sharding, replication, batching.

The single wire-agnostic :class:`~repro.ledger.ledger.Ledger` of the
paper's section 3.2 reproduces the *protocol*; this package reproduces
the *service* the Appendix economics assume — a ledger that serves
planetary status-check load and survives node failures:

* :mod:`repro.cluster.ring` — consistent-hash placement of records
  over N shards (virtual nodes, ~1/N movement on membership change).
* :mod:`repro.cluster.shard` — replica nodes wrapping ``Ledger`` with
  per-shard ``StatusProof`` signing and content-derived serials.
* :mod:`repro.cluster.replication` — R-way quorum writes and reads
  with read repair on divergence.
* :mod:`repro.cluster.frontend` — the stateless router: per-shard
  batching, bounded in-flight backpressure, Bloom pre-check.
* :mod:`repro.cluster.health` — timeout-based failure suspicion with
  half-open probation.
* :mod:`repro.cluster.antientropy` — digest reconciliation and
  re-replication of records a replica missed or lost.
* :mod:`repro.cluster.assembly` — the one place all of the above is
  wired together, parameterised by (clock, scheduler, transport);
  seeded populations, crash/restart faults, replica inspection, and
  the synchronous :class:`LocalCluster` adapter.
* :mod:`repro.cluster.simnet` — the netsim adapter: the assembly as
  simulated nodes with RPC latency, finite shard capacity, link
  partitions and clock skew (E17).  The asyncio adapter is
  :mod:`repro.service.cluster`, next to the server that runs its loop.

The frontend additionally hosts the resilience layer
(:mod:`repro.resilience`): deadlines, bounded backoff retries, circuit
breakers, load shedding, degraded filter-backed reads, and hinted
handoff of missed replica writes.
"""

from repro.cluster.ring import HashRing, RingError, DEFAULT_VNODES
from repro.cluster.shard import ClusterShard, ClusterDirectory, content_serial
from repro.cluster.replication import (
    Hint,
    HintQueue,
    LocalShardTransport,
    QuorumExecutor,
    QuorumResult,
    ShardReply,
    ShardTransport,
    StatusCollector,
    StatusOutcome,
    majority,
)
from repro.cluster.antientropy import AntiEntropySweeper, SweepReport
from repro.cluster.frontend import (
    ClusterAnswer,
    ClusterConfig,
    ClusterFrontend,
    FrontendStats,
)
from repro.cluster.health import FailureDetector
from repro.cluster.assembly import (
    Cluster,
    ClusterPopulation,
    LearningBloom,
    LocalCluster,
    ShardRecovery,
)
from repro.cluster.simnet import (
    NetsimShardTransport,
    ShardCostModel,
    SimulatedCluster,
)

__all__ = [
    "HashRing",
    "RingError",
    "DEFAULT_VNODES",
    "ClusterShard",
    "ClusterDirectory",
    "content_serial",
    "Hint",
    "HintQueue",
    "AntiEntropySweeper",
    "SweepReport",
    "LocalShardTransport",
    "QuorumExecutor",
    "QuorumResult",
    "ShardReply",
    "ShardTransport",
    "StatusCollector",
    "StatusOutcome",
    "majority",
    "ClusterAnswer",
    "ClusterConfig",
    "ClusterFrontend",
    "FrontendStats",
    "FailureDetector",
    "Cluster",
    "ClusterPopulation",
    "LearningBloom",
    "LocalCluster",
    "ShardRecovery",
    "NetsimShardTransport",
    "ShardCostModel",
    "SimulatedCluster",
]
