"""One status query as an object: admitted → attempt → answer.

Reads are hedged quorum reads: every replica the breakers admit is
asked, and the read completes at ``read_quorum`` answers, so one dead
replica costs nothing but a timeout that the failure detector turns
into suspicion.  Every replica of the read set answers ``state`` +
``epoch``, and the verdict is the ``state`` at the highest epoch of the
quorum.  A caller that consumes only the verdict (``proof=False``: the
HTTP service, whose wire format carries no proof) gets a *verdict
read*, which ends there and costs no signature.  A caller that
re-publishes or audits the answer (the default: validators,
aggregators, proxies) gets a *proof read* — the same read with one
more stage: one replica — the *signer*, the first the failure detector
trusts in ring order — also signs, so the answer costs one signature,
not one per replica, and carries a proof from a replica at the winning
epoch.  When the quorum arrives without such a proof (signer dead, slow
or stale) a proof read fetches one from a quorum member at the winning
epoch, once per attempt; a failed fetch is a failed attempt.

An attempt that cannot reach its quorum is retried afresh after a
seeded-jitter backoff while ``max_retries`` and the request's deadline
allow, and otherwise answered *degraded*: from the (possibly stale)
Bloom filter when ``degraded_reads`` is on — and because every
revocation the frontend acks is also added to that filter, the
degraded path never fails open on a revocation this frontend
acknowledged — or with the fail-safe ``revoked=True`` plus ``.error``.
A deadline backstop timer guarantees the query is *answered* within
its budget whichever of the two it takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.identifiers import PhotoIdentifier
from repro.ledger.proofs import StatusProof
from repro.ledger.records import RevocationState
from repro.cluster.replication import (
    MIN_RPC_BUDGET,
    ShardReply,
    StatusCollector,
    StatusOutcome,
)
from repro.resilience import Deadline

if TYPE_CHECKING:
    from repro.cluster.frontend import ClusterFrontend

__all__ = ["ClusterAnswer", "StatusRead"]


@dataclass(slots=True)
class ClusterAnswer:
    """The frontend's answer to one status query."""

    identifier: str
    revoked: bool
    source: str  # 'filter' | 'shard' | 'degraded'
    proof: Optional[StatusProof] = None
    state: Optional[str] = None
    epoch: int = -1
    answered_by: Optional[str] = None
    error: Optional[str] = None
    degraded: bool = False  # answered from the filter, not a shard quorum
    # Why a non-authoritative answer is one: 'deadline' | 'shed' |
    # 'quorum', or 'not_found' when the replicas hold no such record.
    cause: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _ignore_reply(reply: ShardReply) -> None:
    """Read repair is best effort; the next read re-detects."""


class StatusRead:
    """One status query, from admission to its single answer.

    Created by :meth:`ClusterFrontend.status_async`, which answers it
    straight away (filter miss, load shed, budget already spent) or
    sets its ``deadline`` and ``backstop`` (the deadline timer's handle,
    when the scheduler gives one) and calls :meth:`start`.  ``proof``
    says whether the caller will consume a signed proof or only the
    verdict (see the module docstring).  The collector of an attempt is
    never stored here — it reaches :meth:`_fetch_proof` as an argument —
    and :meth:`answer` cancels the backstop, which drops the handle's
    reference back to the read, so an answered read is not part of a
    reference cycle and is freed at once, not at its deadline.
    """

    __slots__ = (
        "frontend", "identifier", "callback", "proof", "op_id", "span",
        "rspan", "deadline", "backstop", "attempts", "answered",
    )

    def __init__(
        self,
        frontend: "ClusterFrontend",
        identifier: PhotoIdentifier,
        callback: Callable[[ClusterAnswer], None],
        proof: bool = True,
    ):
        self.frontend = frontend
        self.identifier = identifier
        self.callback = callback
        self.proof = proof
        self.deadline: Optional[Deadline] = None
        self.backstop = None
        self.attempts = 0  # fresh read attempts consumed (retries)
        self.answered = False
        self.rspan = None  # the running attempt's replication.read span
        self.op_id, self.span = frontend.begin("status", identifier.serial)
        self.note("frontend_queries_total", "queries")

    def note(
        self, metric: str, stat: str, event: Optional[str] = None, **attrs
    ) -> None:
        """Count one occurrence: in the stats, on ``/metrics``, on the span."""
        stats = self.frontend.stats
        setattr(stats, stat, getattr(stats, stat) + 1)
        if self.frontend.obs is not None:
            self.frontend.counters[metric].inc()
            if event is not None:
                self.span.event(event, **attrs)

    # -- the answer ----------------------------------------------------------------

    def answer(self, answer: ClusterAnswer) -> None:
        """Deliver the answer; only the first one counts."""
        if self.answered:
            return  # deadline backstop and quorum raced; first wins
        self.answered = True
        if self.backstop is not None:
            self.backstop.cancel()
        frontend = self.frontend
        obs = frontend.obs
        if obs is not None:
            frontend.answers[answer.source].inc()
            obs.histogram("frontend_status_latency_seconds").observe(
                obs.now() - self.span.started_at
            )
            self.span.end(
                source=answer.source,
                revoked=answer.revoked,
                degraded=answer.degraded,
                ok=answer.ok,
            )
        frontend.end(
            self.op_id,
            ok=answer.ok,
            revoked=answer.revoked,
            epoch=answer.epoch,
            source=answer.source,
            error=answer.error,
            degraded=answer.degraded,
        )
        self.callback(answer)

    def expire(self) -> None:
        """The deadline backstop: answer now unless something already has."""
        if self.answered:
            return
        self.note(
            "frontend_deadline_answers_total", "deadline_answers",
            "deadline_exceeded",
        )
        self.answer(self.degraded("deadline exceeded", cause="deadline"))

    def degraded(
        self, reason: Optional[str], cause: str = "quorum"
    ) -> ClusterAnswer:
        """The answer of last resort when no shard quorum is reachable.

        With ``degraded_reads`` on, the Bloom filter substitutes for the
        quorum: a miss is a definitive *not revoked* (subject to filter
        staleness, which the E19 harness measures) and a hit reports
        *revoked* — Bloom false positives err closed, and every
        revocation this frontend acked was inserted via
        :meth:`ClusterFrontend.note_revoked`, so the degraded path never
        fails open on an acknowledged revocation.  Without the flag,
        the fail-safe stands: ``revoked=True`` with ``.error`` set.
        """
        frontend = self.frontend
        if not frontend.config.degraded_reads:
            return self._unavailable(reason or "read quorum unreachable", cause)
        self.note("frontend_degraded_answers_total", "degraded_answers")
        revoked = True  # no filter at all: maximally conservative
        if frontend.filterset is not None:
            revoked = bool(
                frontend.filterset.might_be_revoked(
                    self.identifier.to_compact()
                )
            )
        return ClusterAnswer(
            self.identifier.to_string(), revoked, "degraded", degraded=True, cause=cause
        )

    def _unavailable(self, error: str, cause: str = "quorum") -> ClusterAnswer:
        """The fail-safe verdict, ``revoked=True``; callers see ``.error``."""
        return ClusterAnswer(
            self.identifier.to_string(), True, "shard", error=error, cause=cause
        )

    # -- attempts ------------------------------------------------------------------

    def start(self) -> None:
        """Begin one read attempt against breaker-admitted replicas."""
        if self.answered:
            return  # deadline fired while this retry was waiting
        frontend = self.frontend
        read_set = [
            shard_id
            for shard_id in frontend.replicas_for(self.identifier)
            if frontend.breaker_allows(shard_id)
        ]
        quorum = frontend.config.read_quorum
        if len(read_set) < quorum:
            self._retry_or_degrade("read quorum unreachable: breakers open")
            return
        signer = None
        if self.proof:
            # One replica signs.  Ring order starts at a different shard
            # for different keys, so the signing load spreads with the ring.
            signer = next(
                (s for s in read_set if not frontend.detector.is_suspect(s)),
                read_set[0],
            )
            self.note("frontend_signed_reads_total", "signed_reads")
        obs = frontend.obs
        if obs is not None:
            self.rspan = obs.start(
                "replication.read",
                parent=self.span,
                shards=",".join(read_set),
                quorum=quorum,
            )
        collector = StatusCollector(
            serial=self.identifier.serial,
            replicas=read_set,
            quorum=quorum,
            on_done=self._on_done,
            on_stale=self._repair,
            on_unproven=self._fetch_proof if self.proof else None,
        )
        for shard_id in read_set:
            frontend.batcher.enqueue(
                shard_id, collector.serial, collector, self.deadline,
                signed=shard_id == signer,
            )
        frontend.batcher.pump()

    def _on_done(self, outcome: StatusOutcome) -> None:
        if self.rspan is not None:
            self.rspan.end(ok=outcome.ok)
        if outcome.ok:
            self.answer(ClusterAnswer(
                self.identifier.to_string(), RevocationState(outcome.state).is_revoked,
                "shard", proof=outcome.proof, state=outcome.state, epoch=outcome.epoch,
                answered_by=outcome.answered_by,
            ))
        elif outcome.error is not None and "unknown serial" in outcome.error:
            # The replicas answered: no such record.  That is an
            # application verdict, not unavailability — retry and the
            # degraded filter fallback would both mask it (the filter
            # would answer "not revoked" for an id that was never
            # claimed at all).
            self.answer(self._unavailable(outcome.error, cause="not_found"))
        else:
            self._retry_or_degrade(outcome.error)

    def _fetch_proof(self, shard_id: str, collector: StatusCollector) -> None:
        """The quorum came without a proof: ask ``shard_id`` to sign."""
        self.note(
            "frontend_proof_fetches_total", "proof_fetches",
            "proof_fetch", shard=shard_id,
        )
        batcher = self.frontend.batcher
        batcher.enqueue(
            shard_id, collector.serial, collector, self.deadline, signed=True
        )
        batcher.pump()

    def _retry_or_degrade(self, reason: Optional[str]) -> None:
        """Budget left → back off and retry fresh; else answer degraded."""
        frontend = self.frontend
        if self.attempts < frontend.config.max_retries:
            delay = frontend.backoff.delay(self.attempts, frontend.rng)
            now = frontend.clock()
            if self.deadline is None or self.deadline.allows(now, delay):
                self.attempts += 1
                self.note(
                    "frontend_retries_total", "retries",
                    "retry", attempt=self.attempts, delay=delay,
                )
                frontend.later(delay, self.start)
                return
        if self.span is not None:
            self.span.event("degraded", reason=reason or "quorum unreachable")
        # Replica RPC timers are cut to the request's budget, so they
        # and the deadline backstop expire together; whichever fires
        # first, it is the budget that ran out.
        spent = (
            self.deadline is not None
            and self.deadline.remaining(frontend.clock()) <= MIN_RPC_BUDGET
        )
        self.answer(
            self.degraded(reason, cause="deadline" if spent else "quorum")
        )

    def _repair(self, shard_id: str, outcome: StatusOutcome) -> None:
        """Push the winning state to a replica that answered stale."""
        frontend = self.frontend
        frontend.stats.read_repairs += 1
        obs = frontend.obs
        if obs is not None:
            obs.counter("read_repairs_total", shard=shard_id).inc()
        frontend.transport.invoke(
            shard_id,
            "apply_state",
            {
                "serial": outcome.serial,
                "state": outcome.state,
                "epoch": outcome.epoch,
            },
            _ignore_reply,
            timeout=None,  # repair carries no request budget; transport default
        )
