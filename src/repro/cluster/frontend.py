"""The cluster frontend: a stateless router, in parts.

Clients (proxies, aggregators, the CLI demo) speak to one frontend,
which owns no record state at all — everything it needs to route is the
ring (a pure function) and the shard transport.  Any number of
frontends can run side by side; killing one loses only its in-flight
batches (and, with hinted handoff enabled, its undelivered hints —
which the anti-entropy sweep repairs).

:class:`ClusterFrontend` is construction, configuration, health
fan-out, placement, admission and the public API.  Each in-flight
operation is an object of its own — :class:`~repro.cluster.reads.StatusRead`
(the section 4.4 status check), :class:`~repro.cluster.writes.ClaimWrite`
and :class:`~repro.cluster.writes.Revocation` — and replica lookups
leave through one :class:`~repro.cluster.batcher.StatusBatcher`.

**Admission** is what a status check passes before it costs a shard
anything: an optional :class:`~repro.proxy.filterset.ProxyFilterSet`
pre-check (a Bloom miss means *definitely not revoked* and the query
never reaches a shard), a token bucket (``shed_rate``) that refuses
excess load before it queues, and a ``request_deadline`` budget that
propagates into batched RPC timeouts and arms a backstop timer so every
query is *answered* within the deadline — degraded if need be.
Per-shard circuit breakers (``breaker_threshold``) stop paying timeouts
to dead replicas.

``status_async`` is the one per-identifier implementation of that
sequence.  A page view is one vectorized filter pass, ``probe_many``,
which accounts for the misses together — a miss costs a filter probe,
not a read object, a span and five metric look-ups — and
``status_async`` for every hit (``status_many_async`` does both).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.errors import ClaimError, LedgerUnavailableError, RevocationError
from repro.core.identifiers import PhotoIdentifier, compact_keys, identifier_string
from repro.crypto.signatures import KeyPair, PublicKey, Signature
from repro.crypto.timestamp import TimestampAuthority
from repro.ledger.proofs import StatusProof
from repro.ledger.records import claim_digest
from repro.obs.metrics import Handles
from repro.cluster.batcher import StatusBatcher
from repro.cluster.health import FailureDetector
from repro.cluster.reads import ClusterAnswer, StatusRead
from repro.cluster.replication import (
    HintQueue,
    QuorumExecutor,
    ShardTransport,
    majority,
)
from repro.cluster.ring import HashRing
from repro.cluster.shard import content_serial
from repro.cluster.writes import ClaimWrite, Revocation
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
    """Replication and resilience knobs.

    ``write_quorum``/``read_quorum`` default to majorities of
    ``replication_factor``, which guarantees read-write overlap; set
    ``read_quorum=1`` for first-answer-wins reads (the cheapest and the
    weakest) at the price of bounded staleness while a write's
    propagation is incomplete.

    The resilience knobs all default to off: no deadline, no fresh
    retries, breakers and shedding disabled, strict (non-degraded)
    answers, no hinted handoff; :meth:`full` is all of them on, at the
    values E19 measured.  Batch size, in-flight window and hint-queue
    bound are constants of ``StatusBatcher`` and ``HintQueue``.
    """

    replication_factor: int = 3
    write_quorum: Optional[int] = None
    read_quorum: Optional[int] = None
    # -- resilience: deadlines / retries ------------------------------------
    request_deadline: Optional[float] = None  # per-status budget (seconds)
    max_retries: int = 0  # fresh read attempts after the first
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

    @classmethod
    def full(cls, replication_factor: int = 3, **overrides) -> "ClusterConfig":
        """E19's ``full`` policy: what the experiment measured and ``serve`` runs.

        A revocation check answered inside 250 ms (section 4.4) whatever
        the replicas do: three fresh attempts with 10-80 ms backoff,
        breakers that trip at three failures and probe after 0.4 s,
        Bloom-backed answers when no quorum is reachable, and missed
        writes replayed every 0.2 s.  ``overrides`` replace single fields.
        """
        policy = dict(
            replication_factor=replication_factor,
            request_deadline=0.25,
            max_retries=3,
            backoff_base=0.01,
            backoff_cap=0.08,
            breaker_threshold=3,
            breaker_reset_timeout=0.4,
            degraded_reads=True,
            hinted_handoff=True,
            hint_replay_interval=0.2,
        )
        return cls(**{**policy, **overrides})

    def backoff_policy(self) -> BackoffPolicy:
        return BackoffPolicy(base=self.backoff_base, cap=self.backoff_cap)

    def resolved(self) -> "ClusterConfig":
        r = self.replication_factor
        if r < 1:
            raise ValueError("replication factor must be at least 1")
        cfg = replace(
            self,
            write_quorum=self.write_quorum or majority(r),
            read_quorum=self.read_quorum or majority(r),
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
        if cfg.request_deadline is not None and cfg.request_deadline <= 0:
            raise ValueError("request_deadline must be positive when set")
        if cfg.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
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
        return cfg


@dataclass
class FrontendStats:
    queries: int = 0
    filter_short_circuits: int = 0
    shard_lookups: int = 0  # per-replica status sub-queries issued
    batches_sent: int = 0
    batch_items: int = 0
    read_repairs: int = 0
    signed_reads: int = 0  # read attempts that named a signer (proof reads)
    proof_fetches: int = 0  # proof reads whose quorum arrived without a proof
    failovers: int = 0  # revocations whose first coordinator failed the challenge
    retries: int = 0  # fresh read attempts after backoff
    degraded_answers: int = 0  # answered from the filter (quorum unreachable)
    deadline_answers: int = 0  # degraded answers forced by the deadline timer
    load_shed: int = 0  # queries refused by the token bucket
    claims: int = 0
    revocations: int = 0
    throttled: int = 0  # batch sends deferred by the in-flight window
    peak_inflight: int = 0


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
        call completes before returning — lookups are sent as they are
        queued, backoff delays collapse to immediate continuations and
        no timer is ever armed (see :meth:`later`).
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
        retry/proof-fetch/deadline events; the filter misses of a
        :meth:`probe_many` batch share its one
        ``frontend.status_many`` span instead), and wires the breaker
        board, token bucket and hint queue into the same registry.
        When None (the default) no instrumentation code runs and the
        hot path allocates nothing extra.
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
        self.clock = clock or (lambda: 0.0)
        self._scheduler = scheduler
        self.detector = detector or FailureDetector(self.clock)
        self.config = (config or ClusterConfig()).resolved()
        if self.config.replication_factor > len(ring):
            raise ValueError(
                f"replication factor {self.config.replication_factor} "
                f"exceeds ring size {len(ring)}"
            )
        self.filterset = filterset
        self.observer = observer
        self.rng = rng
        self.obs = obs
        if obs is not None:  # the read path's metrics, each looked up once
            self.counters = Handles(obs.counter)
            self.answers = Handles(obs.counter, "frontend_answers_total", "source")
        self._open_breakers: set = set()
        self.backoff = self.config.backoff_policy()
        self.breakers: Optional[BreakerBoard] = None
        if self.config.breaker_threshold is not None:
            self.breakers = BreakerBoard(
                self.clock,
                failure_threshold=self.config.breaker_threshold,
                reset_timeout=self.config.breaker_reset_timeout,
                on_transition=(
                    self._breaker_transition if obs is not None else None
                ),
            )
        self.shedder: Optional[TokenBucket] = None
        if self.config.shed_rate is not None:
            self.shedder = TokenBucket(
                self.config.shed_rate, self.config.shed_burst, self.clock,
                obs=obs,
            )
        self.hints: Optional[HintQueue] = None
        if self.config.hinted_handoff:
            # Replay attempts are breaker-gated (~one per reset window
            # while a shard is down), so the attempt cap must cover a
            # realistic outage, not just transient blips.
            self.hints = HintQueue(self.clock, max_attempts=6, obs=obs)
            self.hints.drive(
                transport,
                partial(self.later, watchdog=True),
                self.config.hint_replay_interval,
                self.breaker_allows,
                self.record_result,
            )
        self.executor = QuorumExecutor(transport, on_result=self.record_result)
        self.stats = FrontendStats()
        self.batcher = StatusBatcher(
            transport, self.clock, scheduler, self.stats, self.record_result,
            obs=obs,
        )

    # -- observation -------------------------------------------------------------

    def begin(self, kind: str, serial: int) -> tuple:
        """Open a client-visible operation: its observer id and its span."""
        op_id = span = None
        if self.observer is not None:
            op_id = self.observer.begin(kind, serial)
        if self.obs is not None:
            span = self.obs.start(f"frontend.{kind}", serial=serial)
        return op_id, span

    def end(self, op_id, **attrs) -> None:
        """Tell the observer how the operation :meth:`begin` opened came out."""
        if self.observer is not None and op_id is not None:
            self.observer.complete(op_id, **attrs)

    def _breaker_transition(self, target: str, state: BreakerState) -> None:
        """Board hook: count transitions, track the open-breaker gauge."""
        if state is BreakerState.CLOSED:
            self._open_breakers.discard(target)
        else:
            self._open_breakers.add(target)
        if self.obs is not None:
            self.obs.counter(
                "breaker_transitions_total", target=target, to=state.value
            ).inc()
            self.obs.gauge("breakers_open").set(len(self._open_breakers))

    # -- health fan-out ----------------------------------------------------------

    def record_result(self, shard_id: str, ok: bool) -> None:
        """The one entry for an RPC outcome: the detector, then the breakers."""
        self.detector.record(shard_id, ok)
        if self.breakers is not None:
            self.breakers.record(shard_id, ok)

    def breaker_allows(self, shard_id: str) -> bool:
        return self.breakers is None or self.breakers.allow(shard_id)

    def later(
        self, delay: float, fn: Callable[[], None], watchdog: bool = False
    ) -> Any:
        """Run ``fn`` after ``delay`` seconds on the injected scheduler.

        Returns what the scheduler returned: a cancellable handle on
        asyncio (a read cancels its deadline backstop once answered),
        None on netsim and in synchronous mode.
        Synchronous mode has no timers, and whatever a call starts has
        finished by the time it returns: a continuation (backoff retry,
        backfill sweep) runs at once, and a ``watchdog`` (deadline
        backstop, hint replay tick) — a timer that only matters if
        something is still outstanding when it fires — never runs.
        """
        if self._scheduler is not None and delay > 0:
            return self._scheduler(delay, fn)
        if not watchdog:
            fn()
        return None

    # -- placement ---------------------------------------------------------------

    def replicas_for(self, identifier: PhotoIdentifier) -> List[str]:
        return self.ring.replicas(
            identifier.to_compact(), self.config.replication_factor
        )

    # -- status (hot path) --------------------------------------------------------

    def status_async(
        self,
        identifier: PhotoIdentifier,
        callback: Callable[[ClusterAnswer], None],
        use_filter: bool = True,
        deadline: Optional[Deadline] = None,
        proof: bool = True,
    ) -> None:
        """Admit one status lookup; ``callback`` fires exactly once.

        ``proof`` says what the caller will consume.  True (the
        default) is a *proof read*: a shard answer carries a
        :class:`StatusProof` signed by a replica at the winning epoch.
        False is a *verdict read* for callers that serve only
        ``revoked``/``state``/``epoch`` (the HTTP service): the same
        quorum, read repair and retries, no signature, ``.proof`` None.

        ``deadline`` may shorten ``config.request_deadline`` for this one
        query, never lengthen it (``clamp_rpc_timeout``'s rule): a caller's
        own budget (the HTTP deadline header) bounds the backstop and the
        per-RPC timeouts.  One already expired is answered degraded at
        once, without consuming a read.
        """
        read = StatusRead(self, identifier, callback, proof)
        if use_filter and self.filterset is not None:
            if not self.filterset.might_be_revoked(identifier.to_compact()):
                read.note("frontend_filter_short_circuits_total", "filter_short_circuits")
                read.answer(ClusterAnswer(identifier.to_string(), False, "filter"))
                return
        if self.shedder is not None and not self.shedder.try_acquire():
            read.note("frontend_load_shed_total", "load_shed", "load_shed")
            read.answer(read.degraded("load shed", cause="shed"))
            return
        now, budget = self.clock(), self.config.request_deadline
        remaining = deadline.remaining(now) if deadline is not None else None
        if remaining is not None and (budget is None or remaining < budget):
            budget = remaining
        elif budget is not None:
            deadline = Deadline.after(now, budget)
        if budget is not None:
            read.deadline = deadline
            if budget <= 0.0:
                read.expire()  # arrived already out of budget
                return
            read.backstop = self.later(budget, read.expire, watchdog=True)
        read.start()

    def probe_many(self, serials: Sequence[int]) -> Optional[List[bool]]:
        """One ``might_be_revoked_many`` pass over serials of this ledger.

        A miss (~98 % of a page view, section 4.3) is answered by its
        verdict — never shed, never held to a deadline, never near a shard
        — and accounted for here by the misses' number: stats, counters,
        one weighted latency observation, one ``frontend.status_many``
        span.  None, counting nothing, when the filter has no batch verdict
        or an operation observer is attached (it is told of each operation,
        and ``check_spans`` pairs each with its own span).
        """
        many = getattr(self.filterset, "might_be_revoked_many", None)
        if many is None or self.observer is not None:
            return None
        obs = self.obs
        span = obs and obs.start("frontend.status_many", ids=len(serials))
        verdicts = many(compact_keys(self.cluster_id, serials)).tolist()
        misses = verdicts.count(False)
        if misses:
            self.stats.queries += misses
            self.stats.filter_short_circuits += misses
            if obs is not None:
                self.counters["frontend_queries_total"].inc(misses)
                self.counters["frontend_filter_short_circuits_total"].inc(misses)
                self.answers["filter"].inc(misses)
                obs.histogram("frontend_status_latency_seconds").observe(
                    obs.now() - span.started_at, count=misses
                )
        if span is not None:
            span.end(misses=misses)
        return verdicts

    def status_many_async(
        self,
        identifiers: Sequence[int],
        callback: Callable[[int, ClusterAnswer], None],
        use_filter: bool = True,
        deadline: Optional[Deadline] = None,
        proof: bool = True,
    ) -> None:
        """Queue a burst of status lookups: one :meth:`probe_many`, a read per hit.

        ``identifiers`` are serials on this frontend's ledger, as a parsing
        caller holds them; ``callback(index, answer)`` fires exactly once
        per serial (completion order is arbitrary), with the answers, stats
        and ``/metrics`` totals of one :meth:`status_async` per identifier.
        With ``use_filter``, the probe accounts for the misses and each is
        called back with its filter answer, no identifier built; a hit is
        one :meth:`status_async`, and so is every serial when the probe
        gives no verdicts.  ``POST /status`` probes by itself, renders its
        misses from the verdicts and passes only its hits here, unfiltered.
        """
        serials = list(identifiers)
        verdicts = self.probe_many(serials) if use_filter else None
        if verdicts is not None:
            use_filter = False  # probed: a hit goes on to the rest of admission
        for index, serial in enumerate(serials):
            if verdicts is None or verdicts[index]:
                self.status_async(
                    PhotoIdentifier(self.cluster_id, serial),
                    partial(callback, index),
                    use_filter=use_filter,
                    deadline=deadline,
                    proof=proof,
                )
            else:
                callback(index, ClusterAnswer(
                    identifier_string(self.cluster_id, serial), False, "filter"
                ))

    # -- claims and revocations ----------------------------------------------------

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
        identifier = PhotoIdentifier(ledger_id=self.cluster_id, serial=serial)
        payload = {
            "serial": serial,
            "content_hash": content_hash,
            "content_signature": content_signature,
            "public_key": public_key,
            "timestamp": self._tsa.issue(claim_digest(content_hash, public_key)),
            "initially_revoked": initially_revoked,
            "custodial": custodial,
        }
        ClaimWrite(self, identifier, payload, callback).start()
        return identifier

    def revoke_async(
        self,
        identifier: PhotoIdentifier,
        keypair: KeyPair,
        callback: Callable[[Optional[Dict[str, Any]], Optional[str]], None],
        action: str = "revoke",
    ) -> None:
        """Fully asynchronous challenge-sign-flip-propagate chain.

        ``callback(outcome, error)`` fires once, when the write quorum
        is reached (``error is None``) or the action is proven
        impossible; see :class:`~repro.cluster.writes.Revocation`.
        """
        if action not in ("revoke", "unrevoke"):
            raise ValueError(f"unknown revocation action {action!r}")
        Revocation(self, identifier, keypair, callback, action).start()

    def note_revoked(self, identifier: PhotoIdentifier) -> None:
        """Insert an acked revocation into the filter (if it can learn).

        This is the fail-closed half of degraded reads: once a
        revocation is acknowledged, even a filter-only answer reports it
        revoked.  ProxyFilterSet-style read-only filters simply lack
        ``add`` and are left untouched.
        """
        add = getattr(self.filterset, "add", None)
        if add is not None:
            add(identifier.to_compact())

    # -- synchronous conveniences (in-process transports only) ---------------------

    def _sync(self, method: Callable[..., Any], *args, **kwargs) -> tuple:
        """Run an ``*_async`` method to completion; what its callback got.

        Every ``*_async`` method takes its callback as the last
        positional argument, so ``args`` are the ones before it.
        """
        results: List[tuple] = []
        method(*args, lambda *result: results.append(result), **kwargs)
        if not results:
            raise ClusterError(
                f"{method.__name__} did not complete synchronously; it "
                "needs an in-process transport (use the callback on netsim)"
            )
        return results[0]

    def status(self, identifier: PhotoIdentifier) -> ClusterAnswer:
        """Synchronous status."""
        return self._sync(self.status_async, identifier)[0]

    def status_proof(self, identifier: PhotoIdentifier) -> StatusProof:
        """Authoritative signed proof — a Validator ``StatusSource``.

        Bypasses the Bloom pre-check (validators want a signed
        statement, not a probabilistic shortcut) and raises
        :class:`LedgerUnavailableError` when no quorum answered, which
        is what validation policies key their fail-open/closed on.
        Degraded answers are *not* proofs: they raise too.
        """
        (answer,) = self._sync(self.status_async, identifier, use_filter=False)
        if not answer.ok or answer.proof is None:
            raise LedgerUnavailableError(
                answer.error or "cluster returned no proof"
            )
        return answer.proof

    def claim(
        self,
        content_hash: str,
        content_signature: Signature,
        public_key: PublicKey,
        initially_revoked: bool = False,
        custodial: bool = False,
    ) -> PhotoIdentifier:
        """Synchronous claim."""
        identifier, error = self._sync(
            self.claim_async, content_hash, content_signature, public_key,
            initially_revoked=initially_revoked, custodial=custodial,
        )
        if error is not None:
            raise ClaimError(error)
        return identifier

    def revoke(self, identifier: PhotoIdentifier, keypair: KeyPair) -> Dict[str, Any]:
        """Challenge-sign-revoke convenience (owner holds the key)."""
        return self._owner_action(identifier, keypair, "revoke")

    def unrevoke(self, identifier: PhotoIdentifier, keypair: KeyPair) -> Dict[str, Any]:
        return self._owner_action(identifier, keypair, "unrevoke")

    def _owner_action(
        self, identifier: PhotoIdentifier, keypair: KeyPair, action: str
    ) -> Dict[str, Any]:
        outcome, error = self._sync(
            self.revoke_async, identifier, keypair, action=action
        )
        if error is not None:
            raise RevocationError(error)
        return outcome
