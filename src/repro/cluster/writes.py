"""Owner writes as objects: the claim fan-out and the revocation chain.

Both end in a quorum write over the record's replica group
(:class:`~repro.cluster.replication.QuorumExecutor`), and both watch
every individual replica reply of that fan-out: a replica the write
missed gets a *hint* (``hinted_handoff``), which the
:class:`~repro.cluster.replication.HintQueue` redelivers when the
replica heals.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.core.identifiers import PhotoIdentifier
from repro.crypto.signatures import KeyPair
from repro.ledger.ledger import Ledger
from repro.cluster.replication import QuorumResult, ShardReply
from repro.cluster.shard import CLAIM_COLLISION

if TYPE_CHECKING:
    from repro.cluster.frontend import ClusterFrontend

__all__ = ["ClaimWrite", "Revocation"]


class _Write:
    """What the two writes share: observer op, span, the fan-out's hook."""

    method = ""  # the replica RPC this write fans out

    def __init__(
        self,
        frontend: "ClusterFrontend",
        kind: str,
        identifier: PhotoIdentifier,
        callback: Callable[..., None],
    ):
        self.frontend = frontend
        self.identifier = identifier
        self.callback = callback
        self.payload: Dict[str, Any] = {}  # what the fan-out carries
        self.op_id, self.span = frontend.begin(kind, identifier.serial)

    def on_replica_reply(self, reply: ShardReply) -> None:
        """Per-reply observer of the quorum fan-out.

        Queues a hint for every replica the write missed — including
        stragglers that fail *after* the quorum verdict, which is why
        this hangs off ``on_reply`` rather than the quorum callback.
        (Health tracking hears of the reply from the executor.)
        """
        hints = self.frontend.hints
        # A replica that refused a claim as a collision holds the record
        # it should: a verdict, not a missed write, so nothing to replay.
        if hints is None or reply.ok or reply.error == CLAIM_COLLISION:
            return
        hints.record(
            reply.shard_id,
            self.method,
            self.payload,
            epoch=self.payload.get("epoch", 0),  # a claim is epoch 0
        )


class ClaimWrite(_Write):
    """Quorum-write one claim record to its replica group.

    ``callback(identifier, error)`` fires when the write quorum is
    reached (``error is None``) or proven unreachable; ``error`` is
    :data:`~repro.cluster.shard.CLAIM_COLLISION` itself when a replica
    holds the serial for other content or another owner's key.
    """

    method = "claim"

    def __init__(
        self,
        frontend: "ClusterFrontend",
        identifier: PhotoIdentifier,
        payload: Dict[str, Any],
        callback: Callable[[PhotoIdentifier, Optional[str]], None],
    ):
        super().__init__(frontend, "claim", identifier, callback)
        self.payload = payload
        obs = frontend.obs
        if obs is not None:
            obs.counter("frontend_claims_total").inc()

    def start(self) -> None:
        frontend = self.frontend
        frontend.executor.execute(
            frontend.replicas_for(self.identifier),
            self.method,
            self.payload,
            frontend.config.write_quorum,
            self._on_result,
            on_reply=self.on_replica_reply,
        )

    def _on_result(self, result: QuorumResult) -> None:
        frontend = self.frontend
        if self.span is not None:
            self.span.end(ok=result.ok)
        if result.ok:
            frontend.stats.claims += 1
            if self.payload["initially_revoked"]:
                frontend.note_revoked(self.identifier)
            frontend.end(self.op_id, ok=True, epoch=0)
            self.callback(self.identifier, None)
        else:
            error = result.error
            if any(reply.error == CLAIM_COLLISION for reply in result.failures):
                error = CLAIM_COLLISION
            frontend.end(self.op_id, ok=False, error=error)
            self.callback(self.identifier, error)


class Revocation(_Write):
    """One revoke/unrevoke: challenge → sign → verified flip → propagate.

    Every hop (challenge with coordinator failover, the verified flip,
    the quorum ``apply_state`` fan-out) is callback-driven, so
    revocations can run *during* a simulated partition or crash — which
    is exactly when the chaos checker needs them.  ``callback(outcome,
    error)`` fires once, when the write quorum is reached (``error is
    None``) or the action is proven impossible (:meth:`_fail`, the one
    failure exit).  The observer ack is recorded at quorum time: that
    instant is the durability point the consistency checker holds every
    later status answer to.

    No leg carries a timeout: revocations have no configured deadline
    (they are rare, owner-driven, and must not time out into
    ambiguity); the transport default bounds a dead coordinator.
    """

    method = "apply_state"

    def __init__(
        self,
        frontend: "ClusterFrontend",
        identifier: PhotoIdentifier,
        keypair: KeyPair,
        callback: Callable[[Optional[Dict[str, Any]], Optional[str]], None],
        action: str,
    ):
        super().__init__(frontend, action, identifier, callback)
        obs = frontend.obs
        if obs is not None:
            obs.counter("frontend_revocations_total", action=action).inc()
        self.keypair = keypair
        self.action = action
        self.replicas = frontend.replicas_for(identifier)
        # Coordinator candidates: trusted replicas first, suspects next,
        # breaker-open ones last (tried late, never dropped).  Each
        # replica is asked about once: asking can be a probe admission.
        detector = frontend.detector
        suspect = {s for s in self.replicas if detector.is_suspect(s)}
        candidates = sorted(self.replicas, key=suspect.__contains__)
        if frontend.breakers is not None:
            blocked = set(frontend.breakers.open_targets())
            candidates.sort(key=blocked.__contains__)
        self.candidates = candidates
        self.errors: List[str] = []
        self.tried = 0  # coordinators that failed the challenge
        self.coordinator = ""
        self.verdict: Dict[str, Any] = {}  # {'state': ..., 'epoch': ...}

    def start(self) -> None:
        """Ask the next candidate coordinator for a challenge nonce."""
        if self.tried >= len(self.candidates):
            self._fail(
                f"challenge failed on all replicas ({'; '.join(self.errors)})"
            )
            return
        self.coordinator = self.candidates[self.tried]
        self.frontend.transport.invoke(
            self.coordinator,
            "challenge",
            {"serial": self.identifier.serial},
            self._on_challenge,
            timeout=None,  # see the class docstring
        )

    def _on_challenge(self, reply: ShardReply) -> None:
        frontend = self.frontend
        frontend.record_result(self.coordinator, reply.ok)
        if not reply.ok:
            self.errors.append(f"{self.coordinator}: {reply.error}")
            self.tried += 1
            self.start()
            return
        if self.tried > 0:
            frontend.stats.failovers += 1
            obs = frontend.obs
            if obs is not None:
                obs.counter("frontend_failovers_total").inc()
        nonce = reply.value
        signature = self.keypair.sign_struct(
            Ledger.ownership_payload(self.action, self.identifier, nonce)
        )
        frontend.transport.invoke(
            self.coordinator,
            self.action,
            {
                "serial": self.identifier.serial,
                "nonce": nonce,
                "signature": signature,
            },
            self._on_flip,
            timeout=None,  # see the class docstring
        )

    def _on_flip(self, reply: ShardReply) -> None:
        """The coordinator verified and flipped; propagate to the rest."""
        frontend = self.frontend
        frontend.record_result(self.coordinator, reply.ok)
        if not reply.ok:
            self._fail(
                f"{self.action} via {self.coordinator} failed: {reply.error}"
            )
            return
        self.verdict = reply.value
        others = [s for s in self.replicas if s != self.coordinator]
        if not others:
            self._acked()
            return
        self.payload = {"serial": self.identifier.serial, **self.verdict}
        frontend.executor.execute(
            others,
            self.method,
            self.payload,
            # The coordinator already holds the write.
            max(frontend.config.write_quorum - 1, 1),
            self._on_quorum,
            on_reply=self.on_replica_reply,
        )

    def _on_quorum(self, result: QuorumResult) -> None:
        if self.frontend.config.write_quorum > 1 and not result.ok:
            self._fail(
                f"{self.action} verified but replication quorum failed: "
                f"{result.error}"
            )
        else:
            self._acked()

    def _acked(self) -> None:
        frontend = self.frontend
        frontend.stats.revocations += 1
        if self.action == "revoke":
            frontend.note_revoked(self.identifier)
        if self.span is not None:
            self.span.end(ok=True, epoch=self.verdict["epoch"])
        frontend.end(self.op_id, ok=True, **self.verdict)
        self.callback(dict(self.verdict), None)

    def _fail(self, error: str) -> None:
        if self.span is not None:
            self.span.end(ok=False, error=error)
        self.frontend.end(self.op_id, ok=False, error=error)
        self.callback(None, error)
