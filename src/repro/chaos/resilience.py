"""E19: the resilience layer under chaos — fail degraded, never open.

:func:`run_resilient_chaos` is :func:`~repro.chaos.runner.run_chaos`
with a *policy* axis: the same deterministic fault plan and workload
(identical named RNG streams, so rows are comparable across policies)
is driven against a frontend configured with

* ``none``  — the PR-1 baseline: quorum reads, failover, nothing else;
* ``retry`` — request deadlines, bounded failover and backoff retries;
* ``full``  — ``retry`` plus circuit breakers, degraded filter-backed
  reads, hinted handoff, and a post-heal anti-entropy sweep.

Beyond the E18 invariants (now including the ``fail_open`` rule for
degraded answers) the run measures what resilience *buys* and what it
*costs*: availability, the fraction of queries answered within the
reference deadline, p50/p99 answer latency, how many answers were
degraded, how many degraded answers were conservatively wrong (said
"revoked" for a valid record — the stale-answer rate), hinted-handoff
queue traffic and drain time.  The headline claim E19 exists to commit
to a CSV: at every fault intensity the ``full`` policy keeps the
checker green with zero fail-open answers while meeting the deadline
bar the baseline measurably misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.chaos.plan import ChaosKnobs
from repro.chaos.runner import ChaosOutcome, drive_chaos
from repro.cluster.antientropy import SweepReport
from repro.cluster.assembly import LearningBloom
from repro.cluster.frontend import ClusterConfig
from repro.cluster.simnet import SimulatedCluster

__all__ = [
    "POLICIES",
    "REFERENCE_DEADLINE",
    "ResilienceReport",
    "resilience_config",
    "run_resilient_chaos",
]

POLICIES = ("none", "retry", "full")

# Every policy is measured against the same answer-latency bar, whether
# or not its config enforces one — that is what makes "answered within
# deadline" comparable across the sweep.
REFERENCE_DEADLINE = ClusterConfig.full().request_deadline


def resilience_config(policy: str, num_shards: int = 4) -> ClusterConfig:
    """The frontend configuration one E19 policy tier stands for."""
    r = min(3, num_shards)
    if policy == "none":
        return ClusterConfig(replication_factor=r)
    if policy == "retry":
        return ClusterConfig.full(
            r, breaker_threshold=None, degraded_reads=False, hinted_handoff=False
        )
    if policy == "full":
        return ClusterConfig.full(r)
    raise ValueError(f"unknown resilience policy {policy!r} (want {POLICIES})")


@dataclass(kw_only=True)
class ResilienceReport(ChaosOutcome):
    """One (intensity, policy) cell of the E19 sweep."""

    policy: str
    deadline_met: int = 0
    latencies: List[float] = field(default_factory=list)
    degraded_answers: int = 0
    stale_degraded: int = 0  # degraded 'revoked' verdicts for valid records
    retries: int = 0
    breaker_opens: int = 0
    hints_queued: int = 0
    hints_replayed: int = 0
    hints_dropped: int = 0
    hint_drain_time: Optional[float] = None  # seconds past the heal barrier
    sweep: Optional[SweepReport] = None

    @property
    def deadline_rate(self) -> float:
        """Fraction answered successfully within the reference deadline."""
        if self.status_ops == 0:
            return 1.0
        return self.deadline_met / self.status_ops

    @property
    def stale_rate(self) -> float:
        """Stale degraded verdicts as a fraction of chaos-phase queries."""
        if self.status_ops == 0:
            return 0.0
        return self.stale_degraded / self.status_ops

    @property
    def fail_open(self) -> int:
        return self.check.count("fail_open")

    def _percentile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies), q))

    def row(self) -> Dict[str, object]:
        """One flat, reproducible CSV row for the E19 sweep."""
        by_invariant = self.check.by_invariant()
        return {
            "seed": self.seed,
            "intensity": f"{self.intensity:.2f}",
            "shards": self.num_shards,
            "policy": self.policy,
            "status_ops": self.status_ops,
            "availability": f"{self.availability:.4f}",
            "deadline_met": f"{self.deadline_rate:.4f}",
            "p50_latency": f"{self._percentile(50):.6f}",
            "p99_latency": f"{self._percentile(99):.6f}",
            "degraded_answers": self.degraded_answers,
            "stale_rate": f"{self.stale_rate:.4f}",
            "fail_open": self.fail_open,
            "violations": self.violations,
            "durability_violations": by_invariant.get("revocation_durability", 0),
            "stale_reads": by_invariant.get("stale_read", 0),
            "divergence": by_invariant.get("divergence", 0),
            "lost_writes": by_invariant.get("lost_write", 0),
            "revokes_acked": self.revokes_acked,
            "retries": self.retries,
            "breaker_opens": self.breaker_opens,
            "hints_queued": self.hints_queued,
            "hints_replayed": self.hints_replayed,
            "hints_dropped": self.hints_dropped,
            "hint_drain_s": (
                "" if self.hint_drain_time is None
                else f"{self.hint_drain_time:.3f}"
            ),
            "records_pushed": 0 if self.sweep is None else self.sweep.records_pushed,
            "records_lost": self.records_lost,
            "digest": self.digest[:16],
        }


def run_resilient_chaos(
    num_shards: int = 4,
    seed: int = 0,
    intensity: float = 0.5,
    policy: str = "full",
    queries: int = 400,
    revocations: int = 25,
    population: int = 150,
    horizon: float = 8.0,
    drain: float = 4.0,
    knobs: Optional[ChaosKnobs] = None,
) -> ResilienceReport:
    """One deterministic chaos run under a resilience policy.

    Workload and fault schedule draw from the same named streams in the
    same order as :func:`run_chaos`, so for a given ``(seed,
    intensity)`` every policy faces the *identical* adversary.  Status
    queries bypass the Bloom pre-check (``use_filter=False``): the
    filter serves only the degraded fallback, keeping the policy
    comparison about the read path, not about filter hit rates.
    """
    config = resilience_config(policy, num_shards)
    cluster = SimulatedCluster(
        num_shards,
        config=config,
        seed=seed,
        rpc_timeout=0.05,
        rpc_retries=1,
        filterset=LearningBloom(capacity=max(4 * population, 256)),
    )
    report = ResilienceReport(
        seed=seed, intensity=intensity, num_shards=num_shards, policy=policy
    )
    # Post-heal, under the full policy, an anti-entropy sweep restores
    # records on replicas that reads and hints could not reach or
    # re-create.
    run = drive_chaos(
        cluster,
        report,
        queries,
        revocations,
        population,
        horizon,
        drain,
        knobs,
        use_filter=False,  # the filter is fallback-only here
        sweep_after=lambda plan: policy == "full",
    )
    pop = run.population

    # Ground truth for the stale-degraded metric: when did each record
    # *actually* become revoked (seeded, or first acknowledged revoke)?
    initially_revoked = {
        identifier.serial: pop.revoked(index)
        for index, identifier in enumerate(pop.identifiers)
    }
    first_revoke_ack: Dict[int, float] = {}
    for op in report.history.of_kind("revoke"):
        if op.acked:
            prior = first_revoke_ack.get(op.serial)
            if prior is None or op.completed_at < prior:
                first_revoke_ack[op.serial] = op.completed_at

    def _revoked_by(when: float, serial: int) -> bool:
        if initially_revoked.get(serial, False):
            return True
        acked_at = first_revoke_ack.get(serial)
        return acked_at is not None and acked_at <= when

    report.sweep = run.sweep
    report.retries = cluster.frontend.stats.retries
    for op in run.chaos_status:
        if not op.acked:
            continue
        latency = op.completed_at - op.invoked_at
        report.latencies.append(latency)
        if latency <= REFERENCE_DEADLINE + 1e-9:
            report.deadline_met += 1
        if op.degraded:
            report.degraded_answers += 1
            if op.revoked and not _revoked_by(op.completed_at, op.serial):
                report.stale_degraded += 1
    frontend = cluster.frontend
    if frontend.breakers is not None:
        report.breaker_opens = frontend.breakers.times_opened
    if frontend.hints is not None:
        report.hints_queued = frontend.hints.hints_queued
        report.hints_replayed = frontend.hints.hints_replayed
        report.hints_dropped = frontend.hints.hints_dropped
        if frontend.hints.hints_queued and frontend.hints.drained_at is not None:
            report.hint_drain_time = max(
                0.0, frontend.hints.drained_at - horizon
            )
    return report
