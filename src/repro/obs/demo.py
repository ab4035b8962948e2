"""The ``python -m repro obs`` workload: a fully traced cluster run.

Stands up an instrumented :class:`~repro.cluster.SimulatedCluster`
(``instrument=True``), drives a mixed status/revocation workload
through it, and returns everything the CLI needs to show where time
goes: the :class:`~repro.obs.Observability` with every span and metric,
the client-visible history, and a consistency verdict that includes the
span-vs-history cross-validation
(:meth:`~repro.chaos.ConsistencyChecker.check_spans`).

The run is deterministic end to end — same seed, byte-identical
JSON-lines span export — because every timestamp is simulation time and
every random draw comes from the cluster's seeded
:class:`~repro.netsim.rand.RngRegistry`.  That property is asserted by
the determinism regression test and is what makes traces diffable
across runs: a changed span stream *is* a changed behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.chaos.checker import CheckReport, ConsistencyChecker
from repro.chaos.history import HistoryRecorder
from repro.cluster.frontend import ClusterConfig
from repro.cluster.simnet import SimulatedCluster
from repro.core.identifiers import PhotoIdentifier
from repro.obs.obs import Observability

__all__ = ["TracedRunReport", "run_traced_workload"]


@dataclass
class TracedRunReport:
    """Everything one traced demo run produced."""

    num_shards: int
    seed: int
    queries: int
    revocations_attempted: int
    revocations_acked: int
    answered: int
    obs: Observability
    history: HistoryRecorder
    check: CheckReport

    @property
    def availability(self) -> float:
        return self.answered / self.queries if self.queries else 1.0


def run_traced_workload(
    num_shards: int = 4,
    seed: int = 0,
    queries: int = 400,
    revocations: int = 12,
    revoked_fraction: float = 0.3,
    kill_shard: bool = False,
    config: Optional[ClusterConfig] = None,
) -> TracedRunReport:
    """Run a traced status/revocation workload; return the evidence.

    The default config exercises the resilience layer (deadline,
    retries, breakers, degraded reads, hinted handoff) so the trace
    contains retry/failover/degraded events worth looking at;
    ``kill_shard`` crashes one replica mid-run to guarantee some.
    """
    if num_shards < 1:
        raise ValueError("need at least one shard")
    if queries < 1:
        raise ValueError("need at least one query")
    if config is None:
        config = ClusterConfig(
            replication_factor=min(3, num_shards),
            request_deadline=0.25,
            max_retries=1,
            breaker_threshold=3,
            degraded_reads=True,
            hinted_handoff=True,
        )
    cluster = SimulatedCluster(
        num_shards, config=config, seed=seed, rpc_timeout=0.1, instrument=True
    )
    sim = cluster.simulator
    recorder = HistoryRecorder(sim.clock().now)
    cluster.frontend.observer = recorder
    population = cluster.seed_population(
        max(queries, 200), revoked_fraction=revoked_fraction
    )
    rng = cluster.rngs.stream("obs-demo")
    indices = rng.integers(0, population.size, size=queries)
    answers: Dict[int, object] = {}

    def ask(slot: int, identifier: PhotoIdentifier) -> None:
        cluster.frontend.status_async(
            identifier, lambda answer: answers.__setitem__(slot, answer)
        )

    window = queries * 0.001
    for slot, index in enumerate(indices):
        sim.schedule(slot * 0.001, ask, slot, population.identifiers[index])

    revocations = min(revocations, population.size)
    acked: List[bool] = []
    victims = rng.choice(population.size, size=revocations, replace=False)
    for i, index in enumerate(sorted(victims)):
        identifier = population.identifiers[int(index)]
        at = (i + 1) * window / (revocations + 1)
        sim.schedule(
            at,
            cluster.frontend.revoke_async,
            identifier,
            population.owner,
            lambda outcome, error: acked.append(error is None),
        )
    if kill_shard:
        sim.schedule(window / 2, cluster.kill_shard, f"shard-{num_shards - 1}")
    sim.run(until=max(60.0, window * 2))

    checker = ConsistencyChecker(placement=cluster.placement)
    live = None
    if kill_shard:
        live = [s for s in cluster.shards if s != f"shard-{num_shards - 1}"]
    check = checker.check(recorder, cluster.replica_states(), live_shards=live)
    checker.check_spans(recorder, cluster.obs.spans, report=check)
    return TracedRunReport(
        num_shards=num_shards,
        seed=seed,
        queries=queries,
        revocations_attempted=revocations,
        revocations_acked=sum(acked),
        answered=len(answers),
        obs=cluster.obs,
        history=recorder,
        check=check,
    )
