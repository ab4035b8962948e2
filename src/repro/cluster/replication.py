"""Replica groups: quorum writes, quorum reads, read repair.

Replication here is leaderless in the Dynamo style, scoped per key by
the ring: a key's R replicas are peers, and the frontend coordinates.

* **Writes** (claim, state propagation) go to all R replicas and
  succeed at ``write_quorum`` acks (:class:`QuorumExecutor`).  Claims
  are idempotent (content-derived serials), so retries and duplicate
  deliveries converge.
* **Reads** (status) complete at ``read_quorum`` answers
  (:class:`StatusCollector`).  With W + R > R-total the read quorum is
  guaranteed to overlap the last write quorum, so the merged answer —
  highest ``revocation_epoch`` wins — reflects every acknowledged
  revocation even while some replica is down or stale.  Every replica
  answers ``state`` + ``epoch``, and that is all a *verdict read*
  needs: it completes at the quorum.  A *proof read* is the same read
  with one more stage: one replica, the signer the reader names, also
  signs, and the merged answer carries that one proof.
* **Read repair**: when a quorum read observes replicas at different
  epochs, the collector names the stale ones and the frontend pushes
  the winning state back to them (``apply_state``), so divergence
  created by a down replica heals with normal read traffic instead of
  requiring an anti-entropy sweep.
* **Hinted handoff** (:class:`HintQueue`): a write that reached its
  quorum but missed a replica leaves that replica stale until a read
  happens to repair it.  The coordinator instead queues a *hint* — the
  missed method + payload — and replays it when the replica is
  reachable again, so repair is driven by the write path too, not only
  by read traffic (the availability/repair gap the IPFS measurement
  study documents for purely read-driven repair).  Hints coalesce per
  (shard, serial) at the highest epoch, are bounded per shard, and a
  hint the restored replica *rejects* (e.g. ``apply_state`` on a
  wiped, still-empty replica) is dropped after a few attempts — full
  record restoration is the anti-entropy sweep's job
  (:mod:`repro.cluster.antientropy`).

Everything is callback-style so the identical logic runs on the
synchronous in-process transport (unit tests, demos) and the
discrete-event netsim transport (latency/fault experiments) — the same
duality the wire-agnostic ``Ledger`` already has.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol

__all__ = [
    "ShardReply",
    "ShardTransport",
    "LocalShardTransport",
    "QuorumExecutor",
    "QuorumResult",
    "StatusCollector",
    "StatusOutcome",
    "Hint",
    "HintQueue",
    "majority",
    "MIN_RPC_BUDGET",
    "clamp_rpc_timeout",
]


def majority(n: int) -> int:
    """Smallest quorum overlapping any other majority of ``n``."""
    return n // 2 + 1


@dataclass(slots=True)
class ShardReply:
    """One shard's answer to one replicated call."""

    shard_id: str
    value: Any = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


# The floor asynchronous transports put under an offered ``timeout``: a
# nearly-spent budget still sends one RPC rather than an instant
# timeout, and a request with less than this left cannot start another.
MIN_RPC_BUDGET = 1e-4


def clamp_rpc_timeout(default: float, offered: Optional[float]) -> float:
    """One RPC's timeout: an offered budget may shorten it, never lengthen it."""
    if offered is None:
        return default
    return max(min(default, offered), MIN_RPC_BUDGET)


class ShardTransport(Protocol):
    """How coordinators reach shards; implementations decide the wire.

    ``invoke`` must always call ``callback`` exactly once, with an
    error reply rather than an exception on failure (a dead shard is an
    experiment condition, not a bug).

    ``timeout`` is the caller's remaining budget for this call in
    seconds (``None`` = the transport's default).  Asynchronous
    transports enforce it by answering with a timeout error reply;
    synchronous ones may ignore it (the call cannot outlive the caller
    there), but every call *site* must still pass it so the budget is
    threaded when the transport does matter.
    """

    def invoke(
        self,
        shard_id: str,
        method: str,
        payload: Any,
        callback: Callable[[ShardReply], None],
        timeout: Optional[float] = None,
    ) -> None:  # pragma: no cover - protocol
        ...

    def shard_ids(self) -> List[str]:  # pragma: no cover - protocol
        ...

    def kill(self, shard_id: str) -> None:  # pragma: no cover - protocol
        """Crash ``shard_id`` as this wire would see it (fault hook)."""
        ...

    def revive(self, shard_id: str) -> None:  # pragma: no cover - protocol
        ...


class LocalShardTransport:
    """Synchronous in-process transport over a dict of shards.

    ``kill``/``revive`` model a crashed node: invocations fail fast
    with a "shard down" reply (connection refused, as opposed to the
    netsim transport's silent timeout).
    """

    def __init__(self, shards: Dict[str, Any]):
        self._shards = dict(shards)
        self._down: set = set()
        self.calls = 0

    def shard_ids(self) -> List[str]:
        return sorted(self._shards)

    def kill(self, shard_id: str) -> None:
        if shard_id not in self._shards:
            raise KeyError(shard_id)
        self._down.add(shard_id)

    def revive(self, shard_id: str) -> None:
        self._down.discard(shard_id)

    def invoke(
        self,
        shard_id: str,
        method: str,
        payload: Any,
        callback: Callable[[ShardReply], None],
        timeout: Optional[float] = None,
    ) -> None:
        # `timeout` is accepted for transport interchangeability but has
        # nothing to enforce: the call completes before invoke returns.
        self.calls += 1
        shard = self._shards.get(shard_id)
        if shard is None:
            callback(ShardReply(shard_id, error=f"unknown shard {shard_id!r}"))
            return
        if shard_id in self._down:
            callback(ShardReply(shard_id, error="shard down"))
            return
        handler = shard.rpc_handlers().get(method)
        if handler is None:
            callback(ShardReply(shard_id, error=f"unknown method {method!r}"))
            return
        try:
            callback(ShardReply(shard_id, value=handler(payload)))
        except Exception as exc:  # noqa: BLE001 - fault isolation
            callback(ShardReply(shard_id, error=str(exc)))


@dataclass(slots=True)
class QuorumResult:
    """Outcome of a quorum write."""

    ok: bool
    quorum: int
    acks: List[ShardReply] = field(default_factory=list)
    failures: List[ShardReply] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def value(self) -> Any:
        """The first ack's value (replicas return identical answers)."""
        return self.acks[0].value if self.acks else None


class QuorumExecutor:
    """Fans a write out to a replica group; completes at quorum.

    The callback fires as soon as the outcome is decided — ``quorum``
    acks (success) or enough failures that success is impossible.
    ``on_result(shard_id, ok)`` is told of every reply, late ones
    included, so a slow shard's eventual answer updates its health even
    after the write completed without it.
    """

    def __init__(
        self,
        transport: ShardTransport,
        on_result: Optional[Callable[[str, bool], None]] = None,
    ):
        self._transport = transport
        self._on_result = on_result

    def execute(
        self,
        shard_ids: List[str],
        method: str,
        payload: Any,
        quorum: int,
        callback: Callable[[QuorumResult], None],
        on_reply: Optional[Callable[[ShardReply], None]] = None,
        timeout: Optional[float] = None,
    ) -> None:
        """Fan out; ``callback`` fires at the quorum verdict.

        ``on_reply`` (when given) observes *every* individual reply,
        including those arriving after the verdict — the hook hinted
        handoff uses to catch replicas that missed a successful write.
        ``timeout`` is the per-replica RPC budget, threaded to every
        fan-out leg.
        """
        if not 1 <= quorum <= len(shard_ids):
            raise ValueError(
                f"quorum {quorum} invalid for {len(shard_ids)} replica(s)"
            )
        result = QuorumResult(ok=False, quorum=quorum)
        state = {"done": False}

        def _finish(ok: bool, error: Optional[str] = None) -> None:
            state["done"] = True
            result.ok = ok
            result.error = error
            callback(result)

        def _on_reply(reply: ShardReply) -> None:
            if self._on_result is not None:
                self._on_result(reply.shard_id, reply.ok)
            if on_reply is not None:
                on_reply(reply)
            if reply.ok:
                result.acks.append(reply)
            else:
                result.failures.append(reply)
            if state["done"]:
                return
            if len(result.acks) >= quorum:
                _finish(True)
            elif len(shard_ids) - len(result.failures) < quorum:
                _finish(
                    False,
                    error=(
                        f"{method}: quorum {quorum}/{len(shard_ids)} "
                        f"unreachable ({len(result.failures)} failure(s), "
                        f"e.g. {result.failures[0].error})"
                    ),
                )

        for shard_id in shard_ids:
            self._transport.invoke(
                shard_id, method, payload, _on_reply, timeout=timeout
            )


@dataclass(slots=True)
class StatusOutcome:
    """Merged result of one quorum status read."""

    serial: int
    ok: bool
    proof: Any = None  # StatusProof at the winning epoch (proof reads only)
    state: Optional[str] = None
    epoch: int = -1
    answered_by: Optional[str] = None  # a replica at the winning epoch
    stale_shards: List[str] = field(default_factory=list)
    error: Optional[str] = None


class StatusCollector:
    """Accumulates one key's per-replica status answers.

    The verdict is fixed at ``quorum`` good answers: the highest
    ``revocation_epoch`` among them wins (write quorums guarantee at
    least one read-quorum member saw the newest epoch), and its
    ``state`` is the answer.  A *verdict read* (no ``on_unproven``)
    completes right there, ``answered_by`` the first quorum member at
    that epoch.  A *proof read* passes ``on_unproven`` and also needs
    a proof at the winning epoch, which only the replica the reader
    named as signer sends.  When the quorum holds none (signer dead,
    slow or stale) the collector asks ``on_unproven(shard_id,
    collector)`` — once — to fetch a signed answer from a quorum member
    at the winning epoch; the first answer at that epoch carrying a
    proof, the late signer's or the fetched one, completes the read,
    and a fetch that fails fails the read.  Every answer observed
    *below* the winning epoch — before or after completion — is
    reported through ``on_stale`` for read repair, on both kinds of
    read.
    """

    def __init__(
        self,
        serial: int,
        replicas: List[str],
        quorum: int,
        on_done: Callable[[StatusOutcome], None],
        on_stale: Optional[Callable[[str, StatusOutcome], None]] = None,
        on_unproven: Optional[Callable[[str, "StatusCollector"], None]] = None,
    ):
        if not 1 <= quorum <= len(replicas):
            raise ValueError(
                f"quorum {quorum} invalid for {len(replicas)} replica(s)"
            )
        self.serial = serial
        self.expected = list(replicas)
        self.quorum = quorum
        self._on_done = on_done
        self._on_stale = on_stale
        self._on_unproven = on_unproven
        self._answers: Dict[str, Dict[str, Any]] = {}
        self._errors: Dict[str, str] = {}
        self._verdict: Optional[StatusOutcome] = None  # fixed at quorum
        self._asked: Optional[str] = None  # replica asked for the proof
        self.outcome: Optional[StatusOutcome] = None

    @property
    def done(self) -> bool:
        return self.outcome is not None

    def record(self, shard_id: str, entry: Dict[str, Any]) -> None:
        """Feed one replica's answer (an entry from ``shard.status``)."""
        if "error" in entry:
            self.record_error(shard_id, entry["error"])
            return
        if self.done:
            self._check_stale(shard_id, entry)
            return
        verdict = self._verdict
        if verdict is None:
            self._answers[shard_id] = entry
            if len(self._answers) >= self.quorum:
                self._decide()
        elif entry["epoch"] == verdict.epoch and "proof" in entry:
            self._publish(shard_id, entry)
        elif shard_id == self._asked:
            self._fail(
                f"no proof at epoch {verdict.epoch}: {shard_id} has moved "
                f"to epoch {entry['epoch']}"
            )
        elif entry["epoch"] < verdict.epoch:
            verdict.stale_shards.append(shard_id)  # repaired on publish

    def record_error(self, shard_id: str, error: str) -> None:
        if self.done:
            return
        if self._verdict is not None:
            # The quorum is in; only losing the proof fetch can still
            # fail the read.  The replica's own error text is left out:
            # a wiped replica's "unknown serial" must not read as the
            # quorum's verdict.
            if shard_id == self._asked:
                self._fail(
                    f"no proof at epoch {self._verdict.epoch}: "
                    f"fetch from {shard_id} failed"
                )
            return
        self._errors[shard_id] = error
        if len(self.expected) - len(self._errors) < self.quorum:
            self._fail(
                f"status quorum {self.quorum}/{len(self.expected)} "
                f"unreachable: {sorted(self._errors.values())[0]}"
            )

    def _decide(self) -> None:
        """Quorum reached: fix the verdict; a proof read finds or fetches a proof."""
        answers = self._answers
        epoch = max(entry["epoch"] for entry in answers.values())
        self._verdict = StatusOutcome(
            serial=self.serial,
            ok=True,
            epoch=epoch,
            stale_shards=[s for s, e in answers.items() if e["epoch"] < epoch],
        )
        winners = [s for s, e in answers.items() if e["epoch"] == epoch]
        proven = next((s for s in winners if "proof" in answers[s]), None)
        if proven is not None:
            self._publish(proven, answers[proven])
        elif self._on_unproven is None:
            self._publish(winners[0], answers[winners[0]])
        else:
            self._asked = winners[0]
            self._on_unproven(self._asked, self)

    def _publish(self, shard_id: str, entry: Dict[str, Any]) -> None:
        outcome = self._verdict
        outcome.proof = entry.get("proof")
        outcome.state = entry["state"]
        outcome.answered_by = shard_id
        self.outcome = outcome
        self._on_done(outcome)
        if self._on_stale is not None:
            for stale_id in outcome.stale_shards:
                self._on_stale(stale_id, outcome)

    def _fail(self, error: str) -> None:
        self.outcome = StatusOutcome(serial=self.serial, ok=False, error=error)
        self._on_done(self.outcome)

    def _check_stale(self, shard_id: str, entry: Dict[str, Any]) -> None:
        """A reply that arrived after completion may still need repair."""
        outcome = self.outcome
        if outcome is None or not outcome.ok:
            return
        if entry["epoch"] < outcome.epoch:
            outcome.stale_shards.append(shard_id)
            if self._on_stale is not None:
                self._on_stale(shard_id, outcome)


@dataclass(slots=True)
class Hint:
    """One missed replica write, queued for redelivery."""

    shard_id: str
    method: str  # 'apply_state' | 'claim'
    payload: Dict[str, Any]
    epoch: int = 0
    queued_at: float = 0.0
    attempts: int = 0

    @property
    def serial(self) -> Optional[int]:
        return self.payload.get("serial")


class HintQueue:
    """Coordinator-side store of writes that missed a replica.

    Semantics (Dynamo-style hinted handoff, scoped to this cluster):

    * Hints coalesce per ``(shard, method, serial)`` keeping the
      highest epoch — replaying an old hint after a newer one would be
      rejected by the shard's LWW guard anyway, so only the newest is
      worth carrying.
    * The per-shard queue is bounded (``max_per_shard``); when full the
      *oldest* hint is dropped and counted, never silently.
    * Replay is sequential per shard and stops at the first transport
      failure (the replica is still down; hammering it helps nobody).
      A hint the replica explicitly *rejects* — reachable shard,
      application error, e.g. ``apply_state`` on a serial a disk wipe
      erased — is retried at most ``max_attempts`` times and then
      dropped for the anti-entropy sweep to restore.
    * ``drained_at`` records the moment the queue last became empty
      after holding hints: the E19 "handoff drain time" measurement.
    * *When* hints are replayed is decided here too: a coordinator
      calls :meth:`drive` once, and from then on recording a hint arms
      one timer that replays every hinted shard and re-arms itself
      while anything is pending.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        max_per_shard: int = 4096,
        max_attempts: int = 3,
        obs: Optional[object] = None,
    ):
        if max_per_shard < 1:
            raise ValueError("hint queue must hold at least one hint per shard")
        if max_attempts < 1:
            raise ValueError("hints need at least one replay attempt")
        self._clock = clock
        self.obs = obs  # duck-typed Observability; queue/replay telemetry
        self.max_per_shard = int(max_per_shard)
        self.max_attempts = int(max_attempts)
        self._hints: Dict[str, List[Hint]] = {}
        self._replaying: set = set()
        self._later: Optional[Callable] = None  # the timer drive() was given
        self._armed = False
        self.hints_queued = 0
        self.hints_replayed = 0
        self.hints_dropped = 0
        self.hints_coalesced = 0
        self.drained_at: Optional[float] = None

    # -- the replay timer ---------------------------------------------------------

    def drive(
        self,
        transport: ShardTransport,
        later: Callable[[float, Callable[[], None]], None],
        interval: float,
        allows: Callable[[str], bool],
        on_result: Callable[[str, bool], None],
    ) -> None:
        """Replay over ``transport`` every ``interval`` while hints are pending.

        ``later(delay, fn)`` is the coordinator's timer (one that never
        fires in synchronous mode, where :meth:`replay_all` is called by
        hand).  Shards ``allows(shard_id)`` refuses are skipped — an
        open breaker's own half-open probe is the cheaper liveness
        test — and ``on_result(shard_id, ok)`` reports every delivery
        to health tracking.
        """
        self._transport = transport
        self._later = later
        self._interval = interval
        self._allows = allows
        self._on_result = on_result

    def _arm(self) -> None:
        if self._later is None or self._armed or self.pending() == 0:
            return
        self._armed = True
        self._later(self._interval, self._tick)

    def _tick(self) -> None:
        self._armed = False
        self.replay_all()
        self._arm()

    def replay_all(self) -> None:
        """Try to redeliver queued hints to every hinted shard now."""
        for shard_id in self.shards_with_hints():
            if self._allows(shard_id):
                self.replay(
                    shard_id, self._transport, on_result=self._on_result
                )

    # -- recording ---------------------------------------------------------------

    def record(
        self, shard_id: str, method: str, payload: Dict[str, Any], epoch: int = 0
    ) -> None:
        """Queue one missed write for ``shard_id``; arm the replay timer."""
        queue = self._hints.setdefault(shard_id, [])
        serial = payload.get("serial")
        for hint in queue:
            if hint.method == method and hint.serial == serial:
                self.hints_coalesced += 1
                if self.obs is not None:
                    self.obs.counter(
                        "hints_coalesced_total", shard=shard_id
                    ).inc()
                if epoch > hint.epoch:
                    hint.payload = dict(payload)
                    hint.epoch = epoch
                    hint.attempts = 0
                self._arm()
                return
        if len(queue) >= self.max_per_shard:
            queue.pop(0)
            self._note_dropped(shard_id)
        queue.append(
            Hint(
                shard_id=shard_id,
                method=method,
                payload=dict(payload),
                epoch=epoch,
                queued_at=self._clock(),
            )
        )
        self.hints_queued += 1
        if self.obs is not None:
            self.obs.counter("hints_queued_total", shard=shard_id).inc()
            self.obs.gauge("hints_pending").set(self.pending())
        self._arm()

    def _note_dropped(self, shard_id: str) -> None:
        self.hints_dropped += 1
        if self.obs is not None:
            self.obs.counter("hints_dropped_total", shard=shard_id).inc()

    # -- inspection ---------------------------------------------------------------

    def pending(self, shard_id: Optional[str] = None) -> int:
        if shard_id is not None:
            return len(self._hints.get(shard_id, []))
        return sum(len(q) for q in self._hints.values())

    def shards_with_hints(self) -> List[str]:
        return sorted(s for s, q in self._hints.items() if q)

    def _note_drain(self) -> None:
        if self.obs is not None:
            self.obs.gauge("hints_pending").set(self.pending())
        if self.pending() == 0:
            self.drained_at = self._clock()

    # -- replay -------------------------------------------------------------------

    def replay(
        self,
        shard_id: str,
        transport: ShardTransport,
        on_result: Optional[Callable[[str, bool], None]] = None,
    ) -> None:
        """Redeliver ``shard_id``'s hints sequentially (callback chain).

        ``on_result(shard_id, ok)`` reports each delivery outcome to
        health tracking.  A round stops at an empty queue or a
        transport failure.  Concurrent rounds per shard are refused — a
        second timer tick while a replay chain is still in flight must
        not interleave duplicate deliveries.
        """
        queue = self._hints.get(shard_id)
        if not queue or shard_id in self._replaying:
            return
        self._replaying.add(shard_id)

        def _finish() -> None:
            self._replaying.discard(shard_id)
            self._note_drain()

        def _next() -> None:
            if not queue:
                _finish()
                return
            hint = queue[0]

            def _on_reply(reply: ShardReply) -> None:
                if on_result is not None:
                    on_result(shard_id, reply.ok)
                if reply.ok:
                    queue.pop(0)
                    self.hints_replayed += 1
                    if self.obs is not None:
                        self.obs.counter(
                            "hints_replayed_total", shard=shard_id
                        ).inc()
                    _next()
                    return
                hint.attempts += 1
                if hint.attempts >= self.max_attempts:
                    queue.pop(0)
                    self._note_dropped(shard_id)
                    _next()
                    return
                _finish()  # replica still unreachable; try next round

            transport.invoke(
                shard_id, hint.method, hint.payload, _on_reply,
                timeout=None,  # a replay carries no request budget
            )

        _next()
