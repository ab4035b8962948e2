"""The cluster frontend: a stateless batching router.

Clients (proxies, aggregators, the CLI demo) speak to one frontend,
which owns no record state at all — everything it needs to route is the
ring (a pure function) and the shard transport.  Any number of
frontends can run side by side; killing one loses only its in-flight
batches (and, with hinted handoff enabled, its undelivered hints —
which the anti-entropy sweep repairs).

The hot path is the section 4.4 status check, and three mechanisms keep
shard load sub-linear in client load:

* **Filter pre-check** — an optional proxy-style
  :class:`~repro.proxy.filterset.ProxyFilterSet`: a Bloom miss means
  *definitely not revoked* and the query never reaches a shard.
* **Per-shard batching** — lookups routed to the same shard during
  one scheduler tick (one event-loop iteration on asyncio, one instant
  in netsim: a 64-id ``POST /status``, or every connection readable in
  that iteration) coalesce into one ``status`` RPC, sent when the tick
  ends — up to ``max_batch`` per RPC, and no lookup waits on a timer.
* **Backpressure** — at most ``max_inflight`` batch RPCs are
  outstanding; further batches queue at the frontend instead of
  piling onto a saturated shard, which keeps the cluster in the
  well-behaved region of its latency curve during overload.

Reads default to hedged quorum reads (all R replicas asked, completion
at ``read_quorum``) so one dead replica costs nothing but a timeout
that the failure detector turns into suspicion; ``read_quorum=1`` gives
primary reads with explicit failover through surviving replicas.
Every replica of the read set answers ``state`` + ``epoch``; one — the
*signer*, the first the failure detector trusts in ring order — also
signs, so an authoritative answer costs one signature, not one per
replica, and still carries a proof from a replica at the winning
epoch.  When the quorum arrives without such a proof (signer dead, slow
or stale) the frontend fetches one from a quorum member at the winning
epoch, once per attempt; a failed fetch is a failed attempt.

**Resilience layer** (all knobs default *off*, preserving the PR-1
semantics exactly): failovers and retries are spaced by a seeded-jitter
:class:`~repro.resilience.BackoffPolicy` and bounded
(``max_failover_depth`` hops within an attempt, ``max_retries`` fresh
attempts); a ``request_deadline`` budget propagates into batched RPC
timeouts and arms a backstop timer so every query is *answered* within
the deadline — degraded if need be; per-shard circuit breakers
(``breaker_threshold``) stop paying timeouts to dead replicas; a token
bucket (``shed_rate``) refuses excess load before it queues.  When a
read cannot reach quorum in budget and ``degraded_reads`` is on, the
frontend answers from the (possibly stale) Bloom filter with
``degraded=True`` — and because every revocation the frontend acks is
also added to that filter, the degraded path never fails open on a
revocation this frontend acknowledged.  Writes that miss a replica
queue hints (``hinted_handoff``) which a timer replays when the
replica heals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional

from repro.core.errors import ClaimError, LedgerUnavailableError, RevocationError
from repro.core.identifiers import PhotoIdentifier
from repro.crypto.signatures import KeyPair, PublicKey, Signature
from repro.crypto.timestamp import TimestampAuthority
from repro.ledger.ledger import Ledger
from repro.ledger.proofs import StatusProof
from repro.ledger.records import claim_digest
from repro.cluster.health import FailureDetector
from repro.cluster.replication import (
    MIN_RPC_BUDGET,
    HintQueue,
    QuorumExecutor,
    ShardTransport,
    StatusCollector,
    StatusOutcome,
    majority,
)
from repro.cluster.ring import HashRing
from repro.cluster.shard import content_serial
from repro.resilience import (
    BackoffPolicy,
    BreakerBoard,
    BreakerState,
    Deadline,
    TokenBucket,
)

__all__ = ["ClusterFrontend", "ClusterConfig", "ClusterAnswer", "FrontendStats"]


class ClusterError(Exception):
    """Raised on cluster-level coordination failures."""


@dataclass
class ClusterConfig:
    """Replication, batching and resilience knobs.

    ``write_quorum``/``read_quorum`` default to majorities of
    ``replication_factor``, which guarantees read-write overlap; set
    ``read_quorum=1`` for primary reads (cheapest, used by the
    scale-out bench) at the price of bounded staleness while a write's
    propagation is incomplete.

    The resilience knobs all default to the legacy PR-1 behavior:
    no deadline, no fresh retries, failover free to walk every untried
    replica (bound it with ``max_failover_depth``), breakers and
    shedding disabled, strict (non-degraded) answers, no hinted handoff.
    """

    replication_factor: int = 3
    write_quorum: Optional[int] = None
    read_quorum: Optional[int] = None
    hedged_reads: Optional[bool] = None  # default: quorum > 1
    max_batch: int = 32
    max_inflight: int = 16
    # -- resilience: deadlines / retries ------------------------------------
    request_deadline: Optional[float] = None  # per-status budget (seconds)
    max_retries: int = 0  # fresh read attempts after the first
    # Replica-set hops within one attempt; None (the default) walks every
    # untried replica, which is what makes the quorum-overlap property
    # hold verbatim: a read tolerating n-r failures must be willing to
    # try all n replicas when the quorum is small.
    max_failover_depth: Optional[int] = None
    backoff_base: float = 0.005
    backoff_cap: float = 0.1
    # -- resilience: circuit breakers / shedding ----------------------------
    breaker_threshold: Optional[int] = None  # None disables breakers
    breaker_reset_timeout: float = 1.0
    shed_rate: Optional[float] = None  # tokens/second; None disables
    shed_burst: int = 32
    # -- resilience: degraded reads / hinted handoff ------------------------
    degraded_reads: bool = False
    hinted_handoff: bool = False
    hint_replay_interval: float = 0.25
    max_hints_per_shard: int = 4096

    def backoff_policy(self) -> BackoffPolicy:
        return BackoffPolicy(base=self.backoff_base, cap=self.backoff_cap)

    def resolved(self) -> "ClusterConfig":
        r = self.replication_factor
        if r < 1:
            raise ValueError("replication factor must be at least 1")
        read_quorum = self.read_quorum or majority(r)
        write_quorum = self.write_quorum or majority(r)
        hedged = self.hedged_reads
        if hedged is None:
            hedged = read_quorum > 1
        cfg = replace(
            self,
            write_quorum=write_quorum,
            read_quorum=read_quorum,
            hedged_reads=hedged,
        )
        if cfg.read_quorum > r:
            raise ValueError(
                f"read_quorum {cfg.read_quorum} cannot exceed "
                f"replication_factor {r}: a read cannot contact more "
                "replicas than each record has"
            )
        if cfg.write_quorum > r:
            raise ValueError(
                f"write_quorum {cfg.write_quorum} cannot exceed "
                f"replication_factor {r}"
            )
        if cfg.write_quorum < 1 or cfg.read_quorum < 1:
            raise ValueError("quorums must be at least 1")
        if cfg.max_batch < 1 or cfg.max_inflight < 1:
            raise ValueError("max_batch and max_inflight must be positive")
        if cfg.request_deadline is not None and cfg.request_deadline <= 0:
            raise ValueError("request_deadline must be positive when set")
        if cfg.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if cfg.max_failover_depth is not None and cfg.max_failover_depth < 0:
            raise ValueError("max_failover_depth must be non-negative")
        cfg.backoff_policy()  # validates base/cap
        if cfg.breaker_threshold is not None and cfg.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be at least 1 when set")
        if cfg.breaker_reset_timeout <= 0:
            raise ValueError("breaker_reset_timeout must be positive")
        if cfg.shed_rate is not None and cfg.shed_rate <= 0:
            raise ValueError("shed_rate must be positive when set")
        if cfg.shed_burst < 1:
            raise ValueError("shed_burst must admit at least one request")
        if cfg.hint_replay_interval <= 0:
            raise ValueError("hint_replay_interval must be positive")
        if cfg.max_hints_per_shard < 1:
            raise ValueError("max_hints_per_shard must be at least 1")
        return cfg


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
    cause: Optional[str] = None  # 'deadline' | 'shed' | 'quorum' on non-authoritative answers

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(slots=True)
class _ReadContext:
    """Book-keeping for one status query across retries and failovers."""

    deadline: Optional[Deadline] = None
    attempts: int = 0  # fresh read attempts consumed (retries)
    hops: int = 0  # failover hops within the current attempt
    answered: bool = False
    span: Optional[Any] = None  # obs trace span for this query, if tracing


@dataclass
class FrontendStats:
    queries: int = 0
    filter_short_circuits: int = 0
    shard_lookups: int = 0  # per-replica status sub-queries issued
    batches_sent: int = 0
    batch_items: int = 0
    read_repairs: int = 0
    proof_fetches: int = 0  # quorums that arrived without a proof
    failovers: int = 0
    retries: int = 0  # fresh read attempts after backoff
    degraded_answers: int = 0  # answered from the filter (quorum unreachable)
    deadline_answers: int = 0  # degraded answers forced by the deadline timer
    load_shed: int = 0  # queries refused by the token bucket
    claims: int = 0
    revocations: int = 0
    throttled: int = 0  # batch sends deferred by the in-flight window
    peak_inflight: int = 0

    @property
    def mean_batch_size(self) -> float:
        return self.batch_items / self.batches_sent if self.batches_sent else 0.0


class ClusterFrontend:
    """Stateless coordinator over a sharded, replicated ledger cluster.

    Parameters
    ----------
    cluster_id:
        The logical ledger id all shards share.
    ring / transport:
        Placement function and the wire to the shards.
    timestamp_authority:
        TSA used to prepare claim records (one token per claim, chosen
        by the coordinator so replicas store identical records).
    detector:
        Shared failure detector; created from ``clock`` when omitted.
    scheduler:
        ``scheduler(delay_s, callback)`` for the end-of-tick batch send
        (``delay_s == 0``), backoff and deadline timers (the simulator's
        ``schedule`` in netsim mode).
        When None the frontend runs in synchronous mode: every public
        call flushes its batches before returning and backoff delays
        collapse to immediate continuations.
    filterset:
        Optional Bloom pre-check (see module docstring).  Anything with
        ``might_be_revoked(key)``; if it also exposes ``add(key)``, the
        frontend inserts every revocation it acks, which is what keeps
        degraded answers fail-closed.
    observer:
        Optional operation observer (e.g. the chaos harness's
        :class:`~repro.chaos.history.HistoryRecorder`): ``begin(kind,
        serial, **attrs) -> op_id`` is called when a client-visible
        operation is issued and ``complete(op_id, **attrs)`` when its
        outcome is decided, so an external checker can reconstruct the
        client-visible history without touching the data path.
    rng:
        Optional seeded stream (``uniform()``) for backoff jitter; None
        disables jitter, keeping the undithered schedule.
    obs:
        Optional :class:`~repro.obs.Observability`.  When set, the
        frontend emits ``frontend_*`` counters and latency histograms,
        opens a ``frontend.status`` span per query (with
        ``replication.read`` / ``frontend.batch`` children and
        retry/failover/deadline events), and wires the breaker board,
        token bucket and hint queue into the same registry.  When None
        (the default) no instrumentation code runs and the hot path
        allocates nothing extra.
    """

    def __init__(
        self,
        cluster_id: str,
        ring: HashRing,
        transport: ShardTransport,
        timestamp_authority: TimestampAuthority,
        detector: Optional[FailureDetector] = None,
        config: Optional[ClusterConfig] = None,
        clock: Optional[Callable[[], float]] = None,
        scheduler: Optional[Callable[[float, Callable[[], None]], None]] = None,
        filterset=None,
        observer=None,
        rng=None,
        obs=None,
    ):
        self.cluster_id = cluster_id
        self.ring = ring
        self.transport = transport
        self._tsa = timestamp_authority
        self._clock = clock or (lambda: 0.0)
        self._scheduler = scheduler
        self.detector = detector or FailureDetector(self._clock)
        self.config = (config or ClusterConfig()).resolved()
        if self.config.replication_factor > len(ring):
            raise ValueError(
                f"replication factor {self.config.replication_factor} "
                f"exceeds ring size {len(ring)}"
            )
        self.filterset = filterset
        self.observer = observer
        self._rng = rng
        self.obs = obs
        self._open_breakers: set = set()
        self._backoff = self.config.backoff_policy()
        self.breakers: Optional[BreakerBoard] = None
        if self.config.breaker_threshold is not None:
            self.breakers = BreakerBoard(
                self._clock,
                failure_threshold=self.config.breaker_threshold,
                reset_timeout=self.config.breaker_reset_timeout,
                on_transition=(
                    self._breaker_transition if obs is not None else None
                ),
            )
        self.shedder: Optional[TokenBucket] = None
        if self.config.shed_rate is not None:
            self.shedder = TokenBucket(
                self.config.shed_rate, self.config.shed_burst, self._clock,
                obs=obs,
            )
        self.hints: Optional[HintQueue] = None
        if self.config.hinted_handoff:
            # Replay attempts are breaker-gated (~one per reset window
            # while a shard is down), so the attempt cap must cover a
            # realistic outage, not just transient blips.
            self.hints = HintQueue(
                self._clock,
                max_per_shard=self.config.max_hints_per_shard,
                max_attempts=6,
                obs=obs,
            )
        self._hint_timer_armed = False
        self.executor = QuorumExecutor(transport, detector=self.detector)
        self.stats = FrontendStats()
        # Per-shard pending (collector, deadline, signed) batches.
        self._queues: Dict[str, List[tuple]] = {}
        self._ready: List[str] = []  # FIFO of shards with sendable batches
        self._inflight = 0

    # -- observation -------------------------------------------------------------

    def _begin(self, kind: str, serial: int, **attrs):
        if self.observer is None:
            return None
        return self.observer.begin(kind, serial, **attrs)

    def _end(self, op_id, **attrs) -> None:
        if self.observer is not None and op_id is not None:
            self.observer.complete(op_id, **attrs)

    def _breaker_transition(self, target: str, state: BreakerState) -> None:
        """Board hook: count transitions, track the open-breaker gauge."""
        if self.obs is not None:
            self.obs.counter(
                "breaker_transitions_total", target=target, to=state.value
            ).inc()
        if state is BreakerState.CLOSED:
            self._open_breakers.discard(target)
        else:
            self._open_breakers.add(target)
        if self.obs is not None:
            self.obs.gauge("breakers_open").set(len(self._open_breakers))

    # -- health fan-out ----------------------------------------------------------

    def _record_result(self, shard_id: str, ok: bool) -> None:
        """One observation feeds both the detector and the breakers."""
        if ok:
            self.detector.record_success(shard_id)
        else:
            self.detector.record_failure(shard_id)
        if self.breakers is not None:
            self.breakers.record(shard_id, ok)

    def _breaker_allows(self, shard_id: str) -> bool:
        return self.breakers is None or self.breakers.allow(shard_id)

    def _breakers_last(self, candidates: List[str]) -> List[str]:
        """Reorder so breaker-open shards are tried last (never dropped)."""
        if self.breakers is None:
            return candidates
        blocked = set(self.breakers.open_targets())
        if not blocked:
            return candidates
        return [s for s in candidates if s not in blocked] + [
            s for s in candidates if s in blocked
        ]

    def _later(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` after ``delay`` sim-seconds (immediately in sync mode)."""
        if self._scheduler is None or delay <= 0:
            fn()
        else:
            self._scheduler(delay, fn)

    # -- placement ---------------------------------------------------------------

    def replicas_for(self, identifier: PhotoIdentifier) -> List[str]:
        return self.ring.replicas(
            identifier.to_compact(), self.config.replication_factor
        )

    def _identifier(self, serial: int) -> PhotoIdentifier:
        return PhotoIdentifier(ledger_id=self.cluster_id, serial=serial)

    # -- status (hot path) --------------------------------------------------------

    def status_async(
        self,
        identifier: PhotoIdentifier,
        callback: Callable[[ClusterAnswer], None],
        use_filter: bool = True,
        _filter_verdict: Optional[bool] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        """Queue one status lookup; ``callback`` fires exactly once.

        ``_filter_verdict`` lets :meth:`status_many_async` hand in a
        precomputed Bloom verdict from its vectorized pass so the
        scalar filter probe is skipped; external callers leave it None.

        ``deadline`` overrides ``config.request_deadline`` for this one
        query — how callers with their own budget (the HTTP service's
        deadline header) thread it into the backstop and the per-RPC
        timeouts.  A deadline that has already expired is answered
        degraded immediately, without consuming a read.
        """
        self.stats.queries += 1
        key = identifier.to_string()
        op_id = self._begin("status", identifier.serial)
        ctx = _ReadContext()
        if self.obs is not None:
            self.obs.counter("frontend_queries_total").inc()
            ctx.span = self.obs.start(
                "frontend.status", serial=identifier.serial
            )

        def _observed(answer: ClusterAnswer) -> None:
            if ctx.answered:
                return  # deadline backstop and quorum raced; first wins
            ctx.answered = True
            if self.obs is not None and ctx.span is not None:
                self.obs.counter(
                    "frontend_answers_total", source=answer.source
                ).inc()
                self.obs.histogram(
                    "frontend_status_latency_seconds"
                ).observe(self.obs.now() - ctx.span.started_at)
                ctx.span.end(
                    source=answer.source,
                    revoked=answer.revoked,
                    degraded=answer.degraded,
                    ok=answer.ok,
                )
            self._end(
                op_id,
                ok=answer.ok,
                revoked=answer.revoked,
                epoch=answer.epoch,
                source=answer.source,
                error=answer.error,
                degraded=answer.degraded,
            )
            callback(answer)

        if use_filter and self.filterset is not None:
            might_be = (
                _filter_verdict
                if _filter_verdict is not None
                else self.filterset.might_be_revoked(identifier.to_compact())
            )
        else:
            might_be = True
        if not might_be:
            self.stats.filter_short_circuits += 1
            if self.obs is not None and ctx.span is not None:
                self.obs.counter("frontend_filter_short_circuits_total").inc()
            _observed(
                ClusterAnswer(identifier=key, revoked=False, source="filter")
            )
            return
        if self.shedder is not None and not self.shedder.try_acquire():
            self.stats.load_shed += 1
            if self.obs is not None and ctx.span is not None:
                self.obs.counter("frontend_load_shed_total").inc()
                ctx.span.event("load_shed")
            _observed(
                self._degraded_answer(identifier, "load shed", cause="shed")
            )
            return
        budget: Optional[float] = None
        if deadline is not None:
            ctx.deadline = deadline
            budget = deadline.remaining(self._clock())
        elif self.config.request_deadline is not None:
            ctx.deadline = Deadline.after(
                self._clock(), self.config.request_deadline
            )
            budget = self.config.request_deadline
        if ctx.deadline is not None and budget is not None:
            def _deadline_answer() -> None:
                self.stats.deadline_answers += 1
                if self.obs is not None and ctx.span is not None:
                    self.obs.counter(
                        "frontend_deadline_answers_total"
                    ).inc()
                    ctx.span.event("deadline_exceeded")
                _observed(
                    self._degraded_answer(
                        identifier, "deadline exceeded", cause="deadline"
                    )
                )

            if budget <= 0.0:
                _deadline_answer()  # arrived already out of budget
                return
            if self._scheduler is not None:
                def _backstop() -> None:
                    if not ctx.answered:
                        _deadline_answer()

                self._scheduler(budget, _backstop)
        self._start_read(identifier, ctx, _observed)

    def status_many_async(
        self,
        identifiers: List[PhotoIdentifier],
        callback: Callable[[int, ClusterAnswer], None],
        use_filter: bool = True,
        deadline: Optional[Deadline] = None,
    ) -> None:
        """Queue a burst of status lookups with one vectorized filter pass.

        ``callback(index, answer)`` fires exactly once per identifier
        (indices into ``identifiers``; completion order is arbitrary).
        Equivalent to calling :meth:`status_async` per identifier — the
        batch path only hoists the Bloom pre-check into a single
        :meth:`~repro.proxy.filterset.ProxyFilterSet.might_be_revoked_many`
        call, so the per-query cost on the (dominant) short-circuit path
        drops to a precomputed boolean.  Per-shard RPC batching then
        coalesces the survivors exactly as before.
        """
        identifiers = list(identifiers)
        verdicts = None
        if use_filter and self.filterset is not None:
            many = getattr(self.filterset, "might_be_revoked_many", None)
            if many is not None:
                verdicts = many(
                    [identifier.to_compact() for identifier in identifiers]
                )
        for index, identifier in enumerate(identifiers):
            self.status_async(
                identifier,
                (lambda i: lambda answer: callback(i, answer))(index),
                use_filter=use_filter,
                _filter_verdict=(
                    None if verdicts is None else bool(verdicts[index])
                ),
                deadline=deadline,
            )

    def status_many(
        self, identifiers: List[PhotoIdentifier], use_filter: bool = True
    ) -> List[ClusterAnswer]:
        """Synchronous batch status (in-process transports only)."""
        identifiers = list(identifiers)
        answers: List[Optional[ClusterAnswer]] = [None] * len(identifiers)

        def _collect(index: int, answer: ClusterAnswer) -> None:
            answers[index] = answer

        self.status_many_async(identifiers, _collect, use_filter=use_filter)
        self.flush()
        if any(answer is None for answer in answers):
            raise ClusterError(
                "status_many did not complete synchronously; use "
                "status_many_async with the netsim transport"
            )
        return answers  # type: ignore[return-value]

    def _start_read(
        self,
        identifier: PhotoIdentifier,
        ctx: _ReadContext,
        callback: Callable[[ClusterAnswer], None],
    ) -> None:
        """Begin one read attempt against breaker-admitted replicas."""
        if ctx.answered:
            return  # deadline fired while this retry was waiting
        replicas = self.replicas_for(identifier)
        admitted = [s for s in replicas if self._breaker_allows(s)]
        if len(admitted) < self.config.read_quorum:
            self._retry_or_degrade(
                identifier, ctx, callback,
                "read quorum unreachable: breakers open",
            )
            return
        if self.config.hedged_reads:
            self._read_attempt(identifier, admitted, [], ctx, callback)
        else:
            ordered = self.detector.live(admitted) or list(admitted)
            read_set = ordered[: self.config.read_quorum]
            rest = [s for s in admitted if s not in read_set]
            self._read_attempt(identifier, read_set, rest, ctx, callback)

    def _read_attempt(
        self,
        identifier: PhotoIdentifier,
        read_set: List[str],
        fallback: List[str],
        ctx: _ReadContext,
        callback: Callable[[ClusterAnswer], None],
    ) -> None:
        key = identifier.to_string()
        quorum = min(self.config.read_quorum, len(read_set))
        # One replica signs.  Ring order starts at a different shard for
        # different keys, so the signing load spreads with the ring.
        signer = next(
            (s for s in read_set if not self.detector.is_suspect(s)),
            read_set[0],
        )
        rspan = None
        if self.obs is not None and ctx.span is not None:
            rspan = self.obs.start(
                "replication.read",
                parent=ctx.span,
                shards=",".join(read_set),
                quorum=quorum,
            )

        def _on_done(outcome: StatusOutcome) -> None:
            if rspan is not None:
                rspan.end(ok=outcome.ok)
            if (
                not outcome.ok
                and outcome.error is not None
                and "unknown serial" in outcome.error
            ):
                # The replicas answered: no such record.  That is an
                # application verdict, not unavailability — failover,
                # retry and the degraded filter fallback would all mask
                # it (the filter would answer "not revoked" for an id
                # that was never claimed at all).
                callback(self._answer_from(key, outcome))
                return
            if not outcome.ok and fallback:
                depth = self.config.max_failover_depth
                if depth is None or ctx.hops < depth:
                    # Failover: retry on the untried survivors, spaced
                    # by the backoff schedule (hop number = attempt).
                    ctx.hops += 1
                    self.stats.failovers += 1
                    if self.obs is not None and ctx.span is not None:
                        self.obs.counter("frontend_failovers_total").inc()
                        ctx.span.event("failover", hop=ctx.hops)
                    retry = fallback[: self.config.read_quorum]
                    rest = fallback[len(retry):]
                    self._later(
                        self._backoff.delay(ctx.hops - 1, self._rng),
                        lambda: self._read_attempt(
                            identifier, retry, rest, ctx, callback
                        ),
                    )
                    return
            if not outcome.ok:
                self._retry_or_degrade(identifier, ctx, callback, outcome.error)
                return
            callback(self._answer_from(key, outcome))

        def _fetch_proof(shard_id: str, collector: StatusCollector) -> None:
            # Takes the collector as an argument rather than closing
            # over it: a closure would tie every read into a reference
            # cycle for the garbage collector to find.
            self.stats.proof_fetches += 1
            if self.obs is not None:
                self.obs.counter("frontend_proof_fetches_total").inc()
                if ctx.span is not None:
                    ctx.span.event("proof_fetch", shard=shard_id)
            self._enqueue(shard_id, collector, ctx.deadline, signed=True)
            self._maybe_flush()

        collector = StatusCollector(
            serial=identifier.serial,
            replicas=read_set,
            quorum=quorum,
            on_done=_on_done,
            on_stale=self._repair,
            on_unproven=_fetch_proof,
        )
        for shard_id in read_set:
            self._enqueue(
                shard_id, collector, ctx.deadline, signed=shard_id == signer
            )
        self._maybe_flush()

    def _retry_or_degrade(
        self,
        identifier: PhotoIdentifier,
        ctx: _ReadContext,
        callback: Callable[[ClusterAnswer], None],
        reason: Optional[str],
    ) -> None:
        """Budget left → back off and retry fresh; else answer degraded."""
        if ctx.attempts < self.config.max_retries:
            delay = self._backoff.delay(ctx.attempts, self._rng)
            now = self._clock()
            if ctx.deadline is None or ctx.deadline.allows(now, delay):
                ctx.attempts += 1
                ctx.hops = 0
                self.stats.retries += 1
                if self.obs is not None and ctx.span is not None:
                    self.obs.counter("frontend_retries_total").inc()
                    ctx.span.event("retry", attempt=ctx.attempts, delay=delay)
                self._later(
                    delay, lambda: self._start_read(identifier, ctx, callback)
                )
                return
        if ctx.span is not None:
            ctx.span.event("degraded", reason=reason or "quorum unreachable")
        # Replica RPC timers are cut to the request's budget, so they
        # and the deadline backstop expire together; whichever fires
        # first, it is the budget that ran out.
        spent = (
            ctx.deadline is not None
            and ctx.deadline.remaining(self._clock()) <= MIN_RPC_BUDGET
        )
        callback(
            self._degraded_answer(
                identifier, reason, cause="deadline" if spent else "quorum"
            )
        )

    def _degraded_answer(
        self,
        identifier: PhotoIdentifier,
        reason: Optional[str],
        cause: str = "quorum",
    ) -> ClusterAnswer:
        """The answer of last resort when no shard quorum is reachable.

        With ``degraded_reads`` on, the Bloom filter substitutes for the
        quorum: a miss is a definitive *not revoked* (subject to filter
        staleness, which the E19 harness measures) and a hit reports
        *revoked* — Bloom false positives err closed, and every
        revocation this frontend acked was inserted via
        :meth:`_note_revoked`, so the degraded path never fails open on
        an acknowledged revocation.  Without the flag, the legacy
        fail-safe stands: ``revoked=True`` with ``.error`` set.
        """
        key = identifier.to_string()
        if self.config.degraded_reads:
            self.stats.degraded_answers += 1
            if self.obs is not None:
                self.obs.counter("frontend_degraded_answers_total").inc()
            revoked = True  # no filter at all: maximally conservative
            if self.filterset is not None:
                revoked = bool(
                    self.filterset.might_be_revoked(identifier.to_compact())
                )
            return ClusterAnswer(
                identifier=key,
                revoked=revoked,
                source="degraded",
                degraded=True,
                cause=cause,
            )
        return ClusterAnswer(
            identifier=key,
            revoked=True,  # fail-safe verdict; callers see .error
            source="shard",
            error=reason or "read quorum unreachable",
            cause=cause,
        )

    def _answer_from(self, key: str, outcome: StatusOutcome) -> ClusterAnswer:
        if not outcome.ok:
            return ClusterAnswer(
                identifier=key,
                revoked=True,  # fail-safe verdict; callers see .error
                source="shard",
                error=outcome.error,
                cause="quorum",
            )
        return ClusterAnswer(
            identifier=key,
            revoked=outcome.proof.revoked,
            source="shard",
            proof=outcome.proof,
            state=outcome.state,
            epoch=outcome.epoch,
            answered_by=outcome.answered_by,
        )

    def _repair(self, shard_id: str, outcome: StatusOutcome) -> None:
        """Push the winning state to a replica that answered stale."""
        self.stats.read_repairs += 1
        if self.obs is not None:
            self.obs.counter("read_repairs_total", shard=shard_id).inc()
        self.transport.invoke(
            shard_id,
            "apply_state",
            {
                "serial": outcome.serial,
                "state": outcome.state,
                "epoch": outcome.epoch,
            },
            lambda reply: None,  # best effort; next read re-detects
            timeout=None,  # repair carries no request budget; transport default
        )

    # -- status: synchronous conveniences ------------------------------------------

    def status(self, identifier: PhotoIdentifier) -> ClusterAnswer:
        """Synchronous status (in-process transports only)."""
        box: List[ClusterAnswer] = []
        self.status_async(identifier, box.append)
        self.flush()
        if not box:
            raise ClusterError(
                "status did not complete synchronously; use status_async "
                "with the netsim transport"
            )
        return box[0]

    def status_proof(self, identifier: PhotoIdentifier) -> StatusProof:
        """Authoritative signed proof — a Validator ``StatusSource``.

        Bypasses the Bloom pre-check (validators want a signed
        statement, not a probabilistic shortcut) and raises
        :class:`LedgerUnavailableError` when no quorum answered, which
        is what validation policies key their fail-open/closed on.
        Degraded answers are *not* proofs: they raise too.
        """
        box: List[ClusterAnswer] = []
        self.status_async(identifier, box.append, use_filter=False)
        self.flush()
        if not box:
            raise ClusterError("status did not complete synchronously")
        answer = box[0]
        if not answer.ok or answer.proof is None:
            raise LedgerUnavailableError(
                answer.error or "cluster returned no proof"
            )
        return answer.proof

    # -- claims ----------------------------------------------------------------------

    def claim_async(
        self,
        content_hash: str,
        content_signature: Signature,
        public_key: PublicKey,
        callback: Callable[[PhotoIdentifier, Optional[str]], None],
        initially_revoked: bool = False,
        custodial: bool = False,
    ) -> PhotoIdentifier:
        """Quorum-write a claim; returns the (deterministic) identifier.

        ``callback(identifier, error)`` fires when the write quorum is
        reached (``error is None``) or proven unreachable.
        """
        serial = content_serial(content_hash)
        identifier = self._identifier(serial)
        payload = {
            "serial": serial,
            "content_hash": content_hash,
            "content_signature": content_signature,
            "public_key": public_key,
            "timestamp": self._tsa.issue(claim_digest(content_hash, public_key)),
            "initially_revoked": initially_revoked,
            "custodial": custodial,
        }
        replicas = self.replicas_for(identifier)
        op_id = self._begin("claim", serial)
        span = None
        if self.obs is not None:
            self.obs.counter("frontend_claims_total").inc()
            span = self.obs.start("frontend.claim", serial=serial)

        def _on_result(result) -> None:
            if span is not None:
                span.end(ok=result.ok)
            if result.ok:
                self.stats.claims += 1
                if initially_revoked:
                    self._note_revoked(identifier)
                self._end(op_id, ok=True, epoch=0)
                callback(identifier, None)
            else:
                self._end(op_id, ok=False, error=result.error)
                callback(identifier, result.error)

        self.executor.execute(
            replicas,
            "claim",
            payload,
            self.config.write_quorum,
            _on_result,
            on_reply=self._replica_write_hook("claim", payload, epoch=0),
        )
        return identifier

    def claim(
        self,
        content_hash: str,
        content_signature: Signature,
        public_key: PublicKey,
        initially_revoked: bool = False,
        custodial: bool = False,
    ) -> PhotoIdentifier:
        """Synchronous claim (in-process transports only)."""
        box: List[tuple] = []
        self.claim_async(
            content_hash,
            content_signature,
            public_key,
            lambda ident, err: box.append((ident, err)),
            initially_revoked=initially_revoked,
            custodial=custodial,
        )
        if not box:
            raise ClusterError("claim did not complete synchronously")
        identifier, error = box[0]
        if error is not None:
            raise ClaimError(error)
        return identifier

    # -- hinted handoff ---------------------------------------------------------------

    def _replica_write_hook(
        self, method: str, payload: Dict[str, Any], epoch: int = 0
    ) -> Callable[[Any], None]:
        """Per-reply observer for write fan-outs.

        Feeds the breakers (the executor already feeds the detector) and
        queues a hint for every replica the write missed — including
        stragglers that fail *after* the quorum verdict, which is why
        this hangs off ``on_reply`` rather than the quorum callback.
        """

        def _on_reply(reply) -> None:
            if self.breakers is not None:
                self.breakers.record(reply.shard_id, reply.ok)
            if self.hints is not None and not reply.ok:
                self.hints.record(reply.shard_id, method, payload, epoch=epoch)
                self._arm_hint_timer()

        return _on_reply

    def _arm_hint_timer(self) -> None:
        if (
            self.hints is None
            or self._scheduler is None
            or self._hint_timer_armed
            or self.hints.pending() == 0
        ):
            return
        self._hint_timer_armed = True
        self._scheduler(self.config.hint_replay_interval, self._hint_tick)

    def _hint_tick(self) -> None:
        self._hint_timer_armed = False
        self.replay_hints()
        self._arm_hint_timer()

    def replay_hints(self) -> None:
        """Try to redeliver queued hints to every hinted shard now.

        Normally driven by the replay timer; exposed for tests and for
        sync-mode callers that want to drain after a revive.  Shards
        with an open breaker are skipped — the breaker's own half-open
        probe is the cheaper liveness test.
        """
        if self.hints is None:
            return
        for shard_id in self.hints.shards_with_hints():
            if not self._breaker_allows(shard_id):
                continue
            self.hints.replay(
                shard_id, self.transport, on_result=self._record_result
            )

    def _note_revoked(self, identifier: PhotoIdentifier) -> None:
        """Insert an acked revocation into the filter (if it can learn).

        This is the fail-closed half of degraded reads: once a
        revocation is acknowledged, even a filter-only answer reports it
        revoked.  ProxyFilterSet-style read-only filters simply lack
        ``add`` and are left untouched.
        """
        add = getattr(self.filterset, "add", None)
        if add is not None:
            add(identifier.to_compact())

    # -- revocation -------------------------------------------------------------------

    def revoke_async(
        self,
        identifier: PhotoIdentifier,
        keypair: KeyPair,
        callback: Callable[[Optional[Dict[str, Any]], Optional[str]], None],
        action: str = "revoke",
    ) -> None:
        """Fully asynchronous challenge-sign-flip-propagate chain.

        The netsim-transport twin of :meth:`revoke`: every hop
        (challenge with coordinator failover, the verified flip, the
        quorum ``apply_state`` fan-out) is callback-driven, so
        revocations can run *during* a simulated partition or crash —
        which is exactly when the chaos checker needs them.
        ``callback(outcome, error)`` fires once, when the write quorum
        is reached (``error is None``) or the action is proven
        impossible.  The observer ack is recorded at quorum time: that
        instant is the durability point the consistency checker holds
        every later status answer to.
        """
        if action not in ("revoke", "unrevoke"):
            raise ValueError(f"unknown revocation action {action!r}")
        replicas = self.replicas_for(identifier)
        candidates = self.detector.live(replicas) + [
            s for s in replicas if self.detector.is_suspect(s)
        ]
        candidates = self._breakers_last(candidates)
        op_id = self._begin(action, identifier.serial)
        span = None
        if self.obs is not None:
            self.obs.counter("frontend_revocations_total", action=action).inc()
            span = self.obs.start(
                f"frontend.{action}", serial=identifier.serial
            )
        errors: List[str] = []

        def _fail(error: str) -> None:
            if span is not None:
                span.end(ok=False, error=error)
            self._end(op_id, ok=False, error=error)
            callback(None, error)

        def _try_coordinator(index: int) -> None:
            if index >= len(candidates):
                _fail(
                    f"challenge failed on all replicas ({'; '.join(errors)})"
                )
                return
            coordinator = candidates[index]

            def _on_challenge(reply) -> None:
                if not reply.ok:
                    self._record_result(coordinator, False)
                    errors.append(f"{coordinator}: {reply.error}")
                    _try_coordinator(index + 1)
                    return
                self._record_result(coordinator, True)
                if index > 0:
                    self.stats.failovers += 1
                nonce = reply.value
                signature = keypair.sign_struct(
                    Ledger.ownership_payload(action, identifier, nonce)
                )
                self._flip_and_propagate(
                    identifier, coordinator, nonce, signature, action,
                    replicas, op_id, span, callback,
                )

            self.transport.invoke(
                coordinator, "challenge", {"serial": identifier.serial},
                _on_challenge,
                # Revocations have no configured deadline (they are rare,
                # owner-driven, and must not time out into ambiguity);
                # the transport default bounds a dead coordinator.
                timeout=None,
            )

        _try_coordinator(0)

    def _flip_and_propagate(
        self,
        identifier: PhotoIdentifier,
        coordinator: str,
        nonce: bytes,
        signature: Signature,
        action: str,
        replicas: List[str],
        op_id,
        span,
        callback: Callable[[Optional[Dict[str, Any]], Optional[str]], None],
    ) -> None:
        """Verified flip on the coordinator, then quorum ``apply_state``."""

        def _on_action(reply) -> None:
            if not reply.ok:
                self._record_result(coordinator, False)
                error = f"{action} via {coordinator} failed: {reply.error}"
                if span is not None:
                    span.end(ok=False, error=error)
                self._end(op_id, ok=False, error=error)
                callback(None, error)
                return
            self._record_result(coordinator, True)
            verdict = reply.value  # {'state': ..., 'epoch': ...}
            outcome: Dict[str, Any] = dict(verdict)
            others = [s for s in replicas if s != coordinator]
            needed = self.config.write_quorum - 1  # coordinator holds it

            def _acked() -> None:
                self.stats.revocations += 1
                if action == "revoke":
                    self._note_revoked(identifier)
                if span is not None:
                    span.end(ok=True, epoch=verdict["epoch"])
                self._end(op_id, ok=True, **verdict)
                callback(outcome, None)

            if not others:
                _acked()
                return

            def _on_quorum(result) -> None:
                if needed > 0 and not result.ok:
                    error = (
                        f"{action} verified but replication quorum failed: "
                        f"{result.error}"
                    )
                    if span is not None:
                        span.end(ok=False, error=error)
                    self._end(op_id, ok=False, error=error)
                    callback(None, error)
                    return
                _acked()

            payload = {"serial": identifier.serial, **verdict}
            self.executor.execute(
                others,
                "apply_state",
                payload,
                max(needed, 1),
                _on_quorum,
                on_reply=self._replica_write_hook(
                    "apply_state", payload, epoch=verdict["epoch"]
                ),
            )

        self.transport.invoke(
            coordinator,
            action,
            {"serial": identifier.serial, "nonce": nonce, "signature": signature},
            _on_action,
            timeout=None,  # see the challenge leg above
        )

    def revoke(self, identifier: PhotoIdentifier, keypair: KeyPair) -> Dict[str, Any]:
        """Challenge-sign-revoke convenience (owner holds the key)."""
        return self._owner_action(identifier, keypair, "revoke")

    def unrevoke(self, identifier: PhotoIdentifier, keypair: KeyPair) -> Dict[str, Any]:
        return self._owner_action(identifier, keypair, "unrevoke")

    def _owner_action(
        self, identifier: PhotoIdentifier, keypair: KeyPair, action: str
    ) -> Dict[str, Any]:
        """Synchronous wrapper over :meth:`revoke_async` (local transports)."""
        box: List[tuple] = []
        self.revoke_async(
            identifier,
            keypair,
            lambda outcome, error: box.append((outcome, error)),
            action=action,
        )
        if not box:
            raise ClusterError(
                f"{action} did not complete synchronously; use revoke_async "
                "with the netsim transport"
            )
        outcome, error = box[0]
        if error is not None:
            raise RevocationError(error)
        return outcome

    # -- batching engine ---------------------------------------------------------------

    def _enqueue(
        self,
        shard_id: str,
        collector: StatusCollector,
        deadline: Optional[Deadline],
        signed: bool,
    ) -> None:
        """Queue one replica sub-query; it leaves when this tick ends."""
        self.stats.shard_lookups += 1
        queue = self._queues.setdefault(shard_id, [])
        queue.append((collector, deadline, signed))
        if self._scheduler is None or len(queue) >= self.config.max_batch:
            self._mark_ready(shard_id)
        elif len(queue) == 1:
            # First lookup for this shard since its queue drained:
            # whatever else arrives before the scheduler runs again
            # rides in the same RPC.  A longer queue already has this
            # callback pending, or is held back by ``max_inflight`` and
            # leaves when a reply frees a slot.
            self._scheduler(0, lambda: self._end_of_tick(shard_id))

    def _end_of_tick(self, shard_id: str) -> None:
        if self._queues.get(shard_id):
            self._mark_ready(shard_id)
            self._pump()

    def _mark_ready(self, shard_id: str) -> None:
        if shard_id not in self._ready:
            self._ready.append(shard_id)

    def _maybe_flush(self) -> None:
        if self._scheduler is None:
            self.flush()
        else:
            self._pump()

    def flush(self) -> None:
        """Force every pending batch out (subject to ``max_inflight``)."""
        for shard_id, queue in self._queues.items():
            if queue:
                self._mark_ready(shard_id)
        self._pump()

    def _pump(self) -> None:
        while self._ready:
            if self._inflight >= self.config.max_inflight:
                self.stats.throttled += 1
                return
            shard_id = self._ready.pop(0)
            queue = self._queues.get(shard_id, [])
            if not queue:
                continue
            batch = queue[: self.config.max_batch]
            self._queues[shard_id] = queue[self.config.max_batch:]
            if self._queues[shard_id]:
                self._ready.append(shard_id)  # remainder already waited
            self._send_batch(shard_id, batch)

    def _send_batch(self, shard_id: str, batch: List[tuple]) -> None:
        self._inflight += 1
        self.stats.peak_inflight = max(self.stats.peak_inflight, self._inflight)
        self.stats.batches_sent += 1
        self.stats.batch_items += len(batch)
        bspan = None
        if self.obs is not None:
            self.obs.counter("frontend_batches_total", shard=shard_id).inc()
            self.obs.histogram(
                "frontend_batch_size", buckets=(1, 2, 4, 8, 16, 32, 64)
            ).observe(len(batch))
            bspan = self.obs.start(
                "frontend.batch", shard=shard_id, items=len(batch)
            )

        def _on_reply(reply) -> None:
            if bspan is not None:
                bspan.end(ok=reply.ok)
            self._inflight -= 1
            if reply.ok:
                self._record_result(shard_id, True)
                for (collector, _, _), entry in zip(batch, reply.value):
                    collector.record(shard_id, entry)
            else:
                self._record_result(shard_id, False)
                for collector, _, _ in batch:
                    collector.record_error(shard_id, reply.error)
            self._pump()

        # Deadline propagation: the RPC timeout shrinks to the tightest
        # remaining budget in the batch, so a sub-call can never outlive
        # the request it serves.
        now = self._clock()
        budgets = [
            deadline.remaining(now)
            for _, deadline, _ in batch
            if deadline is not None
        ]
        self.transport.invoke(
            shard_id,
            "status",
            {
                "serials": [collector.serial for collector, _, _ in batch],
                "signed": [signed for _, _, signed in batch],
            },
            _on_reply,
            timeout=min(budgets) if budgets else None,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ClusterFrontend({self.cluster_id!r}, shards={len(self.ring)}, "
            f"r={self.config.replication_factor})"
        )
