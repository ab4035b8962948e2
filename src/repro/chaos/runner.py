"""The chaos experiment driver: cluster + plan + workload + checker.

:func:`run_chaos` is the one call behind both the ``python -m repro
chaos`` subcommand and the E18 benchmark sweep.  It stands up a
:class:`~repro.cluster.simnet.SimulatedCluster`, attaches a
:class:`~repro.chaos.history.HistoryRecorder` to the frontend, installs
a seed-generated :class:`~repro.chaos.plan.ChaosPlan`, and drives a
mixed workload of status checks and live revocations *through* the
fault windows.  After the plan's heal barrier it issues a full read
pass over every touched record (read repair is the cluster's only
anti-divergence mechanism, and repair rides on reads), lets the
simulation drain, snapshots every replica, and hands history + snapshot
to the :class:`~repro.chaos.checker.ConsistencyChecker`.

Every random choice — fault schedule, query times, query targets,
revocation picks — draws from named :class:`~repro.netsim.rand`
streams under the run's single seed, so a :class:`ChaosReport` is a
pure function of its arguments: identical seeds reproduce identical CSV
rows, which is what makes a chaos failure *debuggable*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.chaos.checker import CheckReport, ConsistencyChecker, state_digest
from repro.chaos.history import HistoryRecorder
from repro.chaos.plan import ChaosController, ChaosKnobs, ChaosPlan
from repro.cluster.antientropy import SweepReport
from repro.cluster.assembly import ClusterPopulation, ShardRecovery
from repro.cluster.frontend import ClusterConfig
from repro.cluster.simnet import SimulatedCluster

__all__ = ["ChaosOutcome", "ChaosReport", "ChaosRun", "drive_chaos", "run_chaos"]


@dataclass
class ChaosOutcome:
    """What every chaos run reports, whichever sweep it belongs to."""

    seed: int
    intensity: float
    num_shards: int
    status_ops: int = 0
    status_acked: int = 0
    revokes_attempted: int = 0
    revokes_acked: int = 0
    check: CheckReport = field(default_factory=CheckReport)
    faults: Dict[str, int] = field(default_factory=dict)
    records_lost: int = 0
    digest: str = ""
    # The full recorded history (not part of the CSV row; kept for
    # replay comparisons and debugging).
    history: Optional[HistoryRecorder] = None

    @property
    def availability(self) -> float:
        """Fraction of chaos-phase status checks that got an answer."""
        if self.status_ops == 0:
            return 1.0
        return self.status_acked / self.status_ops

    @property
    def violations(self) -> int:
        return self.check.count()


@dataclass
class ChaosReport(ChaosOutcome):
    """Everything one chaos run proved (or failed to prove)."""

    read_repairs: int = 0
    suspicions: int = 0
    # Durable-recovery observations: every crash-restart's recovery
    # capture plus the storage faults the controller actually landed.
    recoveries: List[ShardRecovery] = field(default_factory=list)
    storage_faults: List[tuple] = field(default_factory=list)

    def row(self) -> Dict[str, object]:
        """One flat, reproducible CSV row for the E18 sweep."""
        by_invariant = self.check.by_invariant()
        return {
            "seed": self.seed,
            "intensity": f"{self.intensity:.2f}",
            "shards": self.num_shards,
            "status_ops": self.status_ops,
            "availability": f"{self.availability:.4f}",
            "revokes_acked": self.revokes_acked,
            "violations": self.violations,
            "durability_violations": by_invariant.get(
                "revocation_durability", 0
            ),
            "stale_reads": by_invariant.get("stale_read", 0),
            "divergence": by_invariant.get("divergence", 0),
            "lost_writes": by_invariant.get("lost_write", 0),
            "partitions": self.faults.get("partition", 0),
            "crashes": self.faults.get("crash", 0),
            "wipes": self.faults.get("wipe", 0),
            "storage_faults": self.faults.get("storage", 0),
            "recoveries": len(self.recoveries),
            "recovery_mismatches": by_invariant.get("recovery_mismatch", 0),
            "corruptions_missed": by_invariant.get("corruption_missed", 0),
            "records_lost": self.records_lost,
            "read_repairs": self.read_repairs,
            "digest": self.digest[:16],
        }


@dataclass
class ChaosRun:
    """What a driven workload leaves behind beyond the shared fields."""

    controller: ChaosController
    population: ClusterPopulation
    chaos_status: list  # status ops invoked inside the fault window
    sweep: Optional[SweepReport]  # the post-heal sweep's report, if one ran


def drive_chaos(
    cluster: SimulatedCluster,
    report: ChaosOutcome,
    queries: int,
    revocations: int,
    population: int,
    horizon: float,
    drain: float,
    knobs: Optional[ChaosKnobs],
    use_filter: bool,
    sweep_after: Callable[[ChaosPlan], bool],
) -> ChaosRun:
    """Schedule the chaos workload on ``cluster``, run it, check it.

    The part :func:`run_chaos` and
    :func:`~repro.chaos.resilience.run_resilient_chaos` share: recorder,
    seeded population, fault plan, status spread, live revocations,
    post-heal read pass, optional anti-entropy sweep
    (``sweep_after(plan)`` decides), drain, and the consistency and
    recovery checks.  Fills in every field ``report`` has by being a
    :class:`ChaosOutcome`.
    """
    sim = cluster.simulator
    frontend = cluster.frontend
    recorder = HistoryRecorder(clock=sim.clock().now)
    frontend.observer = recorder
    pop = cluster.seed_population(population, revoked_fraction=0.2)

    plan = ChaosPlan.generate(
        cluster.rngs.stream("chaos"),
        sorted(cluster.shards),
        horizon=horizon,
        intensity=report.intensity,
        knobs=knobs,
    )
    controller = ChaosController(cluster, plan)
    controller.install()

    workload = cluster.rngs.stream("workload")

    # Status checks spread across the whole fault window.
    times = sorted(workload.uniform(0.0, horizon, size=queries))
    indices = workload.integers(0, pop.size, size=queries)
    for at, index in zip(times, indices):
        sim.schedule_at(
            at,
            frontend.status_async,
            pop.identifiers[int(index)],
            lambda answer: None,
            use_filter,
        )

    # Live revocations of distinct, not-yet-revoked records, issued
    # while faults are active — the writes the checker holds reads to.
    candidates = [i for i in range(pop.size) if not pop.revoked(i)]
    picks = workload.choice(
        candidates, size=min(revocations, len(candidates)), replace=False
    )
    revoke_times = sorted(
        workload.uniform(0.1 * horizon, 0.7 * horizon, size=len(picks))
    )
    for at, index in zip(revoke_times, picks):
        sim.schedule_at(
            at,
            frontend.revoke_async,
            pop.identifiers[int(index)],
            pop.owner,
            lambda outcome, error: None,
        )

    # Post-heal convergence pass: read every record once so read repair
    # touches every replica group, then let repairs drain.
    def _final_pass() -> None:
        for identifier in pop.identifiers:
            frontend.status_async(identifier, lambda answer: None, use_filter)

    sim.schedule_at(horizon + 0.2, _final_pass)
    sweep_box: List[SweepReport] = []
    if sweep_after(plan):
        sim.schedule_at(
            horizon + 0.5, cluster.sweeper().sweep_async, sweep_box.append
        )
    sim.run(until=horizon + drain)

    states = cluster.replica_states()
    checker = ConsistencyChecker(placement=cluster.placement)
    report.check = checker.check(
        recorder, replica_states=states, live_shards=sorted(cluster.shards)
    )
    checker.check_recovery(
        cluster.recoveries, controller.storage_faults, report=report.check
    )
    chaos_status = [
        op for op in recorder.of_kind("status") if op.invoked_at < horizon
    ]
    revoke_ops = recorder.of_kind("revoke", "unrevoke")
    report.status_ops = len(chaos_status)
    report.status_acked = sum(1 for op in chaos_status if op.acked)
    report.revokes_attempted = len(revoke_ops)
    report.revokes_acked = sum(1 for op in revoke_ops if op.acked)
    report.faults = dict(controller.faults_applied)
    report.records_lost = controller.records_lost
    report.digest = state_digest(states)
    report.history = recorder
    return ChaosRun(
        controller=controller,
        population=pop,
        chaos_status=chaos_status,
        sweep=sweep_box[0] if sweep_box else None,
    )


def run_chaos(
    num_shards: int = 4,
    seed: int = 0,
    intensity: float = 0.5,
    queries: int = 400,
    revocations: int = 25,
    population: int = 150,
    horizon: float = 8.0,
    drain: float = 4.0,
    config: Optional[ClusterConfig] = None,
    knobs: Optional[ChaosKnobs] = None,
    sabotage: Optional[Callable[[SimulatedCluster], None]] = None,
) -> ChaosReport:
    """One deterministic chaos run; see the module docstring.

    ``sabotage`` (used by the checker self-test) mutates the cluster
    before any traffic flows — e.g. seeding a deliberate LWW bug to
    confirm the checker is not vacuously green.
    """
    if config is None:
        config = ClusterConfig(replication_factor=min(3, num_shards))
    cluster = SimulatedCluster(
        num_shards,
        config=config,
        seed=seed,
        rpc_timeout=0.05,
        rpc_retries=1,
    )
    if sabotage is not None:
        sabotage(cluster)
    report = ChaosReport(seed=seed, intensity=intensity, num_shards=num_shards)
    # When storage faults are in play, a recovery may have truncated a
    # replica's log back past acknowledged writes; read repair only
    # touches records the final pass reads through that replica, so an
    # anti-entropy sweep backfills whatever the truncation cost.
    run = drive_chaos(
        cluster,
        report,
        queries,
        revocations,
        population,
        horizon,
        drain,
        knobs,
        use_filter=True,
        sweep_after=lambda plan: plan.counts().get("storage", 0) > 0,
    )
    report.read_repairs = cluster.frontend.stats.read_repairs
    report.suspicions = cluster.detector.suspicions_raised
    report.recoveries = list(cluster.recoveries)
    report.storage_faults = list(run.controller.storage_faults)
    return report
