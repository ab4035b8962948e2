"""Consistency checking of cluster histories: is revocation durable?

The checker consumes exactly what an external auditor could see — the
client-visible operation history (:mod:`repro.chaos.history`) and a
final snapshot of replica states — and verifies the three invariants
the revocation service lives by:

* **Monotonic epochs** (``monotonic_epoch``): the quorum-acknowledged
  writes for a record carry strictly increasing ``revocation_epoch``
  values in acknowledgement order.  Last-writer-wins is only sound if
  "last" is well defined.
* **Revocation durability** (``revocation_durability`` /
  ``stale_read``): once a revocation is quorum-acknowledged, no status
  check *issued after* that acknowledgement may observe the record as
  valid at an older epoch.  With R + W > N the read quorum must overlap
  the write quorum, so a stale answer is a bug, not bad luck.  A
  filter short-circuit that answers "definitely not revoked" for a
  revoked record trips the same rule (the Bloom false-negative path).
* **Fail-closed degradation** (``fail_open``): a *degraded* answer —
  one the frontend served from its filter because no read quorum was
  reachable in budget — is explicitly allowed to be stale, but it may
  never report an acknowledged revocation as valid.  Staleness under
  degradation is a measured cost (the E19 stale-answer rate); failing
  open is a violation.
* **Convergence** (``divergence`` / ``lost_write``): after faults heal
  and repair traffic drains, every live replica holding a record agrees
  on its ``(state, epoch)``, and the agreed epoch is at least the
  newest acknowledged one — a healed partition must not roll back an
  acknowledged revocation.

* **Durable recovery** (``recovery_mismatch`` / ``corruption_missed``,
  via :meth:`ConsistencyChecker.check_recovery`): every crash-restart
  that recovered from a durable store must have installed exactly the
  state an independent snapshot+tail replay of its log produces, and
  every storage fault the chaos harness actually injected must surface
  in that recovery's detection evidence — corruption may *cost* data
  (restored by peer backfill) but may never be silently accepted.

Replicas that do not hold a record at all (wiped by a crash-restart and
not yet re-replicated) are an *availability* gap, handled by quorum
sizing, and are deliberately not counted as divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.chaos.history import HistoryRecorder, Op

__all__ = ["ConsistencyChecker", "CheckReport", "Violation", "state_digest"]


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with enough context to debug it."""

    invariant: str
    serial: int
    detail: str


@dataclass
class CheckReport:
    """The checker's verdict over one run."""

    violations: List[Violation] = field(default_factory=list)
    status_ops_checked: int = 0
    writes_checked: int = 0
    serials_checked: int = 0
    spans_checked: int = 0
    recoveries_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def count(self, invariant: Optional[str] = None) -> int:
        if invariant is None:
            return len(self.violations)
        return sum(1 for v in self.violations if v.invariant == invariant)

    def by_invariant(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.invariant] = counts.get(violation.invariant, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CheckReport(ok={self.ok}, violations={self.by_invariant()})"


def state_digest(replica_states: Dict[str, Dict[int, tuple]]) -> str:
    """Canonical hash of a cluster state snapshot (replay comparisons)."""
    import hashlib

    digest = hashlib.sha256()
    for shard_id in sorted(replica_states):
        digest.update(shard_id.encode("utf-8"))
        for serial in sorted(replica_states[shard_id]):
            state, epoch = replica_states[shard_id][serial]
            digest.update(f":{serial}:{state}:{epoch}".encode("utf-8"))
    return digest.hexdigest()


class ConsistencyChecker:
    """Verifies revocation invariants over a history plus a snapshot.

    Parameters
    ----------
    placement:
        ``placement(serial) -> [shard_id, ...]`` — the ring's replica
        set for a record, used to scope convergence to the replicas
        that are *supposed* to hold it.
    """

    def __init__(self, placement: Optional[Callable[[int], List[str]]] = None):
        self._placement = placement

    # -- entry point --------------------------------------------------------------

    def check(
        self,
        history: "HistoryRecorder | Sequence[Op]",
        replica_states: Optional[Dict[str, Dict[int, tuple]]] = None,
        live_shards: Optional[Sequence[str]] = None,
    ) -> CheckReport:
        ops = history.ops if isinstance(history, HistoryRecorder) else list(history)
        report = CheckReport()
        writes = self._acked_writes(ops)
        self._check_monotonic_epochs(writes, report)
        self._check_durability(ops, writes, report)
        if replica_states is not None:
            self._check_convergence(writes, replica_states, live_shards, report)
        return report

    # -- invariant 0: spans agree with the history ----------------------------------

    def check_spans(
        self,
        history: "HistoryRecorder | Sequence[Op]",
        spans: Sequence,
        report: Optional[CheckReport] = None,
    ) -> CheckReport:
        """Cross-validate the trace against the client-visible history.

        The observability layer (:mod:`repro.obs`) and the history
        recorder watch the *same* operations through two independent
        hooks — the frontend's ``obs`` spans and its ``observer``
        protocol.  If both are deterministic functions of the run, they
        must agree: one ``frontend.status`` span per status operation,
        with identical serial, invocation/completion times, answer
        source and degraded flag.  Any disagreement
        (``span_history_mismatch``) means one of the two observation
        channels is lying about the run — exactly the kind of bug a
        metrics layer can introduce silently.

        Spans are matched to operations in creation order: both span
        ids and op ids are handed out sequentially inside the same
        ``status_async`` call, so the i-th status op owns the i-th
        ``frontend.status`` span.
        """
        ops = [
            op
            for op in (
                history.ops
                if isinstance(history, HistoryRecorder)
                else list(history)
            )
            if op.kind == "status"
        ]
        status_spans = sorted(
            (s for s in spans if s.name == "frontend.status"),
            key=lambda s: s.span_id,
        )
        if report is None:
            report = CheckReport()
        if len(ops) != len(status_spans):
            report.violations.append(
                Violation(
                    invariant="span_history_mismatch",
                    serial=-1,
                    detail=(
                        f"{len(ops)} status ops in the history but "
                        f"{len(status_spans)} frontend.status spans in "
                        "the trace"
                    ),
                )
            )
            return report
        for op, span in zip(ops, status_spans):
            report.spans_checked += 1
            problems: List[str] = []
            if span.tags.get("serial") != op.serial:
                problems.append(
                    f"serial {span.tags.get('serial')} != {op.serial}"
                )
            if abs(span.started_at - op.invoked_at) > 1e-9:
                problems.append(
                    f"span started at t={span.started_at:.9f} but op "
                    f"invoked at t={op.invoked_at:.9f}"
                )
            if op.completed and not span.finished:
                problems.append("op completed but span never ended")
            elif not op.completed and span.finished:
                problems.append("span ended but op never completed")
            elif op.completed and span.finished:
                if abs(span.ended_at - op.completed_at) > 1e-9:
                    problems.append(
                        f"span ended at t={span.ended_at:.9f} but op "
                        f"completed at t={op.completed_at:.9f}"
                    )
                if span.tags.get("source") != op.source:
                    problems.append(
                        f"span source {span.tags.get('source')!r} != "
                        f"op source {op.source!r}"
                    )
                if bool(span.tags.get("degraded")) != bool(op.degraded):
                    problems.append(
                        f"span degraded={span.tags.get('degraded')} != "
                        f"op degraded={op.degraded}"
                    )
            if problems:
                report.violations.append(
                    Violation(
                        invariant="span_history_mismatch",
                        serial=op.serial,
                        detail=(
                            f"op {op.op_id} vs span {span.span_id}: "
                            + "; ".join(problems)
                        ),
                    )
                )
        return report

    # -- invariant 1: monotonic epochs --------------------------------------------

    @staticmethod
    def _acked_writes(ops: Sequence[Op]) -> Dict[int, List[Op]]:
        by_serial: Dict[int, List[Op]] = {}
        for op in ops:
            if op.kind in ("revoke", "unrevoke") and op.acked:
                by_serial.setdefault(op.serial, []).append(op)
        for serial in by_serial:
            by_serial[serial].sort(key=lambda op: (op.completed_at, op.op_id))
        return by_serial

    def _check_monotonic_epochs(
        self, writes: Dict[int, List[Op]], report: CheckReport
    ) -> None:
        for serial, serial_writes in sorted(writes.items()):
            report.writes_checked += len(serial_writes)
            last = None
            for op in serial_writes:
                # Epochs may only move forward; the one legal repeat is
                # an idempotent re-ack (same epoch, same resulting
                # state — e.g. revoking an already-revoked record).
                regressed = last is not None and (
                    op.epoch < last.epoch
                    or (op.epoch == last.epoch and op.state != last.state)
                )
                if regressed:
                    report.violations.append(
                        Violation(
                            invariant="monotonic_epoch",
                            serial=serial,
                            detail=(
                                f"{op.kind} acked at t={op.completed_at:.6f} "
                                f"with {op.state}@{op.epoch} after "
                                f"{last.state}@{last.epoch} was already "
                                "acknowledged"
                            ),
                        )
                    )
                last = op

    # -- invariant 2: revocation durability ----------------------------------------

    def _check_durability(
        self,
        ops: Sequence[Op],
        writes: Dict[int, List[Op]],
        report: CheckReport,
    ) -> None:
        for op in ops:
            if op.kind != "status" or not op.completed or not op.ok:
                continue
            report.status_ops_checked += 1
            serial_writes = writes.get(op.serial)
            if not serial_writes:
                continue
            # The newest write acknowledged before this read was issued:
            # a quorum read must observe at least that epoch.
            visible = [
                w for w in serial_writes if w.completed_at <= op.invoked_at
            ]
            if not visible:
                continue
            winner = max(visible, key=lambda w: w.epoch)
            observed = op.epoch if op.epoch is not None else -1
            if op.degraded:
                # Degraded answers carry no epoch and tolerate staleness
                # by contract; the one inviolable rule is fail-closed:
                # an acknowledged revocation must still read as revoked.
                if winner.kind == "revoke" and not op.revoked:
                    report.violations.append(
                        Violation(
                            invariant="fail_open",
                            serial=op.serial,
                            detail=(
                                f"degraded status issued at "
                                f"t={op.invoked_at:.6f} answered 'valid' "
                                f"after revocation epoch {winner.epoch} was "
                                f"acknowledged at t={winner.completed_at:.6f}"
                            ),
                        )
                    )
                continue
            if observed >= winner.epoch:
                continue
            if winner.kind == "revoke" and not op.revoked:
                report.violations.append(
                    Violation(
                        invariant="revocation_durability",
                        serial=op.serial,
                        detail=(
                            f"status issued at t={op.invoked_at:.6f} "
                            f"(source={op.source}) observed 'valid' at epoch "
                            f"{observed} after revocation epoch "
                            f"{winner.epoch} was acknowledged at "
                            f"t={winner.completed_at:.6f}"
                        ),
                    )
                )
            else:
                report.violations.append(
                    Violation(
                        invariant="stale_read",
                        serial=op.serial,
                        detail=(
                            f"status issued at t={op.invoked_at:.6f} observed "
                            f"epoch {observed} below acknowledged epoch "
                            f"{winner.epoch}"
                        ),
                    )
                )

    # -- invariant 3: convergence ----------------------------------------------------

    def _check_convergence(
        self,
        writes: Dict[int, List[Op]],
        replica_states: Dict[str, Dict[int, tuple]],
        live_shards: Optional[Sequence[str]],
        report: CheckReport,
    ) -> None:
        live = set(live_shards) if live_shards is not None else set(replica_states)
        serials: set = set(writes)
        for shard_id, states in replica_states.items():
            if shard_id in live:
                serials.update(states)
        for serial in sorted(serials):
            report.serials_checked += 1
            holders = {}
            expected = (
                self._placement(serial) if self._placement is not None else None
            )
            for shard_id, states in replica_states.items():
                if shard_id not in live:
                    continue
                if expected is not None and shard_id not in expected:
                    continue
                if serial in states:
                    holders[shard_id] = states[serial]
            distinct = set(holders.values())
            if len(distinct) > 1:
                report.violations.append(
                    Violation(
                        invariant="divergence",
                        serial=serial,
                        detail=(
                            "live replicas disagree after heal: "
                            + ", ".join(
                                f"{shard}={state}@{epoch}"
                                for shard, (state, epoch) in sorted(holders.items())
                            )
                        ),
                    )
                )
            serial_writes = writes.get(serial)
            if not serial_writes or not holders:
                continue
            newest = max(serial_writes, key=lambda w: w.epoch)
            agreed_epoch = max(epoch for _, epoch in holders.values())
            if agreed_epoch < newest.epoch:
                report.violations.append(
                    Violation(
                        invariant="lost_write",
                        serial=serial,
                        detail=(
                            f"acknowledged epoch {newest.epoch} ({newest.kind}) "
                            f"absent from every live replica (max seen "
                            f"{agreed_epoch})"
                        ),
                    )
                )

    # -- invariant 4: durable recovery ------------------------------------------------

    #: Detection evidence each injected storage-fault kind must surface.
    #: Log damage can legitimately manifest as any log-layer verdict
    #: (a flipped byte in a length header reads as a torn or truncated
    #: frame), but snapshot damage must be caught at the snapshot layer.
    EXPECTED_EVIDENCE: Dict[str, frozenset] = {
        "torn": frozenset(
            {"torn_record", "corrupted_segment", "truncated_segment",
             "chain_broken"}
        ),
        "corrupt": frozenset(
            {"torn_record", "corrupted_segment", "truncated_segment",
             "chain_broken"}
        ),
        "snapshot": frozenset({"snapshot_corrupt"}),
    }

    def check_recovery(
        self,
        recoveries: Sequence,
        injected: Sequence[tuple] = (),
        report: Optional[CheckReport] = None,
    ) -> CheckReport:
        """Verify the crash-recovery invariants over one run.

        ``recoveries`` are the cluster's
        :class:`~repro.cluster.assembly.ShardRecovery` captures;
        ``injected`` the controller's ``(shard_id, kind, at)`` list of
        storage faults that actually landed.  Two rules:

        * ``recovery_mismatch`` — the state a restarted shard installed
          differs from an independent replay of its recovered log;
        * ``corruption_missed`` — an injected fault produced no
          matching detection evidence in the recovery that followed it
          (silent acceptance of corrupted storage).
        """
        if report is None:
            report = CheckReport()
        for recovery in recoveries:
            report.recoveries_checked += 1
            if recovery.installed_digest != recovery.replayed_digest:
                report.violations.append(
                    Violation(
                        invariant="recovery_mismatch",
                        serial=-1,
                        detail=(
                            f"{recovery.shard_id} restarted at "
                            f"t={recovery.at:.6f} with state digest "
                            f"{recovery.installed_digest[:12]} but replaying "
                            f"its recovered log yields "
                            f"{recovery.replayed_digest[:12]}"
                        ),
                    )
                )
        for shard_id, kind, at in injected:
            expected = self.EXPECTED_EVIDENCE[kind]
            recovery = next(
                (
                    r
                    for r in recoveries
                    if r.shard_id == shard_id and r.at >= at
                ),
                None,
            )
            if recovery is None:
                report.violations.append(
                    Violation(
                        invariant="corruption_missed",
                        serial=-1,
                        detail=(
                            f"{kind} fault injected into {shard_id} at "
                            f"t={at:.6f} but no recovery followed it"
                        ),
                    )
                )
                continue
            if not expected.intersection(recovery.evidence):
                report.violations.append(
                    Violation(
                        invariant="corruption_missed",
                        serial=-1,
                        detail=(
                            f"{kind} fault injected into {shard_id} at "
                            f"t={at:.6f} left no detection evidence in the "
                            f"recovery at t={recovery.at:.6f} "
                            f"(evidence={list(recovery.evidence)})"
                        ),
                    )
                )
        return report
