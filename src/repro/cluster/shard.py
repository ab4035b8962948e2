"""Shard nodes: one replica's slice of the cluster ledger.

A :class:`ClusterShard` wraps a plain :class:`~repro.ledger.ledger.Ledger`
whose ``ledger_id`` is the *cluster's* logical id — identifiers minted
anywhere in the cluster read ``irs1:<cluster>:<serial>`` and any replica
of the owning group can serve them.  Each shard signs its own
:class:`~repro.ledger.proofs.StatusProof` answers with its own key pair
(per-shard signing keeps key compromise local to one node); the
:class:`ClusterDirectory` maps proof fingerprints back to shards so
validators can verify any replica's answer.

**Content-derived serials.**  A single logical ledger with many serial
allocators cannot hand out ``store.allocate_serial()`` numbers — two
shards would mint colliding identifiers.  Instead the serial *is* the
content: the first 8 bytes of ``SHA-256("irs-cluster-serial:" + content
hash)``.  That makes claims idempotent (a replayed or re-replicated
claim maps to the same serial), makes placement routable from either
the content hash (claim time) or the identifier (status time), and
costs nothing: a 63-bit space holds billions of photos with negligible
collision probability, and a real collision is rejected loudly.

**Replication protocol surface.**  The methods here are the wire
protocol (dict payloads in, dict/objects out) so the same shard code
serves the in-process transport and the netsim RPC endpoints:

* ``claim`` — apply a coordinator-prepared claim (serial + TSA token
  chosen once by the frontend, so replicas store identical records).
* ``challenge`` / ``revoke`` / ``unrevoke`` — the standard ownership
  challenge-response, verified *by the coordinator replica*; verified
  flips then propagate to peers as ``apply_state``.
* ``apply_state`` — follower/read-repair application, last-writer-wins
  on ``revocation_epoch``.
* ``status`` — batched statuses: every answer carries the record's
  state and epoch so quorum readers can detect divergence, and the
  serials the reader flagged also carry a signed proof.
* ``digest`` / ``fetch_records`` / ``install_record`` — the
  anti-entropy surface: a cheap ``{serial: epoch}`` summary for
  reconciliation, full-record export from a fresh holder, and
  idempotent LWW installation on a stale or wiped replica.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional

from repro.core.errors import ClaimError, RevocationError
from repro.core.identifiers import PhotoIdentifier
from repro.crypto.signatures import KeyPair, PublicKey
from repro.crypto.timestamp import TimestampAuthority
from repro.ledger.durable import DurableStore
from repro.ledger.ledger import Ledger, LedgerConfig
from repro.ledger.records import RevocationState
from repro.ledger.recovery import RecoveryReport, recover_store

__all__ = [
    "ClusterShard", "ClusterDirectory", "content_serial", "CLAIM_COLLISION",
]

_SERIAL_SALT = b"irs-cluster-serial:"

#: A replica's refusal of a claim whose serial other content already
#: holds; the claim write reports it as its error, verbatim.
CLAIM_COLLISION = "serial already claimed for different content"


def content_serial(content_hash: str) -> int:
    """Deterministic 63-bit serial derived from a content hash."""
    digest = hashlib.sha256(_SERIAL_SALT + content_hash.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


class ClusterShard:
    """One replica node: a ledger slice plus the replication protocol."""

    def __init__(
        self,
        shard_id: str,
        cluster_id: str,
        timestamp_authority: TimestampAuthority,
        keypair: Optional[KeyPair] = None,
        clock: Optional[Callable[[], float]] = None,
        config: Optional[LedgerConfig] = None,
        durable: Optional[DurableStore] = None,
        snapshot_interval: int = 64,
    ):
        self.shard_id = shard_id
        self.cluster_id = cluster_id
        self.ledger = Ledger(
            ledger_id=cluster_id,
            timestamp_authority=timestamp_authority,
            keypair=keypair,
            clock=clock,
            config=config,
        )
        # Replication-plane counters (client-plane load lives on the
        # wrapped ledger's counters).
        self.states_applied = 0
        self.stale_applies_ignored = 0
        # Durability: when a simulated disk is attached, every sealed
        # ledger event is journaled to it, with a chain-anchored
        # snapshot every ``snapshot_interval`` events to bound replay.
        self.durable = durable
        self.snapshot_interval = max(1, int(snapshot_interval))
        self._events_since_snapshot = 0
        if durable is not None:
            self.ledger.store.attach_journal(self._journal_event)

    # -- durability -----------------------------------------------------------------

    def _journal_event(self, event) -> None:
        """WAL append for one sealed event, snapshotting periodically."""
        self.durable.append_event(event)
        self._events_since_snapshot += 1
        if self._events_since_snapshot >= self.snapshot_interval:
            self.write_snapshot()

    def write_snapshot(self) -> None:
        """Persist a chain-anchored snapshot of the current view."""
        store = self.ledger.store
        self.durable.write_snapshot(
            store.records_map(),
            store.next_serial,
            store.events.head_seq,
            store.events.head_hash,
        )
        self._events_since_snapshot = 0

    def recover(self) -> RecoveryReport:
        """Restart path: rebuild state from the local durable store.

        Loads the newest valid snapshot, verifies the WAL chain,
        replays the proven tail, installs the result, and truncates the
        disk to the verified prefix so the resumed chain and the log on
        disk agree.  The report's ``evidence`` names every torn,
        corrupted, or truncated structure detected; whatever was lost
        past the truncation point must come back via peer backfill.
        """
        if self.durable is None:
            raise RuntimeError(
                f"shard {self.shard_id!r} has no durable store to recover"
            )
        report = recover_store(self.durable)
        store = self.ledger.store
        store.restore(
            report.records,
            report.next_serial,
            report.head_seq,
            report.head_hash,
        )
        if report.truncation is not None:
            self.durable.truncate_after(
                report.truncation[0], report.truncation[1], report.head_seq
            )
        self._events_since_snapshot = 0
        return report

    # -- identity -----------------------------------------------------------------

    @property
    def public_key(self) -> PublicKey:
        return self.ledger.public_key

    @property
    def fingerprint(self) -> str:
        return self.ledger.fingerprint

    def _identifier(self, serial: int) -> PhotoIdentifier:
        return PhotoIdentifier(ledger_id=self.cluster_id, serial=serial)

    # -- protocol: claim ------------------------------------------------------------

    def claim(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Apply a coordinator-prepared claim (idempotent).

        Only the same content under the same owner's key is a
        ``duplicate``: serials derive from content, so another owner's
        claim of these bytes lands here and is refused, not handed the id.
        """
        serial = payload["serial"]
        existing = self.ledger.store.get(serial)
        if existing is not None:
            if (
                existing.content_hash == payload["content_hash"]
                and existing.public_key == payload["public_key"]
            ):
                return {"serial": serial, "duplicate": True}
            raise ClaimError(CLAIM_COLLISION)
        record = self.ledger.claim(
            content_hash=payload["content_hash"],
            content_signature=payload["content_signature"],
            public_key=payload["public_key"],
            initially_revoked=payload.get("initially_revoked", False),
            custodial=payload.get("custodial", False),
            serial=serial,
            timestamp=payload["timestamp"],
        )
        return {"serial": record.identifier.serial, "duplicate": False}

    # -- protocol: ownership actions --------------------------------------------------

    def challenge(self, payload: Dict[str, Any]) -> bytes:
        return self.ledger.make_challenge(self._identifier(payload["serial"]))

    def revoke(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        record = self.ledger.revoke(
            self._identifier(payload["serial"]),
            payload["nonce"],
            payload["signature"],
        )
        return {"state": record.state.value, "epoch": record.revocation_epoch}

    def unrevoke(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        record = self.ledger.unrevoke(
            self._identifier(payload["serial"]),
            payload["nonce"],
            payload["signature"],
        )
        return {"state": record.state.value, "epoch": record.revocation_epoch}

    # -- protocol: replication --------------------------------------------------------

    def apply_state(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Adopt a peer-verified revocation state (LWW by epoch).

        Used on the follower path of quorum writes and by read repair.
        The coordinator already ran the challenge-response proof; the
        intra-cluster channel is trusted (one operator's nodes), so the
        follower only enforces monotonicity.
        """
        serial = payload["serial"]
        record = self.ledger.store.get(serial)
        if record is None:
            raise RevocationError(
                f"cannot apply state to unknown serial {serial}"
            )
        epoch = payload["epoch"]
        if epoch <= record.revocation_epoch:
            self.stale_applies_ignored += 1
            return {"applied": False, "epoch": record.revocation_epoch}
        self.ledger.store.apply_flip(
            serial,
            RevocationState(payload["state"]),
            epoch,
            "apply_state",
            self.ledger.now(),
        )
        self.states_applied += 1
        return {"applied": True, "epoch": epoch}

    # -- protocol: anti-entropy -------------------------------------------------------

    def digest(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """``{serial: epoch}`` summary for anti-entropy reconciliation.

        ``payload['serials']`` (optional) restricts the summary; by
        default every held record is reported.
        """
        serials = payload.get("serials")
        store = self.ledger.store
        if serials is None:
            entries = {
                record.identifier.serial: record.revocation_epoch
                for record in store.records()
            }
        else:
            entries = {}
            for serial in serials:
                record = store.get(serial)
                if record is not None:
                    entries[serial] = record.revocation_epoch
        return {"records": entries}

    def fetch_records(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Export full records for re-replication (cloned, never aliased)."""
        records = []
        for serial in payload["serials"]:
            record = self.ledger.store.get(serial)
            if record is not None:
                records.append(replace(record))
        return {"records": records}

    def install_record(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Adopt a re-replicated record (idempotent, LWW on epoch).

        Unlike ``apply_state`` this carries the whole claim record, so
        it restores replicas that lost their disk entirely.  A record
        already held at an equal or newer epoch is left untouched.
        """
        incoming = payload["record"]
        serial = incoming.identifier.serial
        existing = self.ledger.store.get(serial)
        if existing is None:
            self.ledger.store.put(
                replace(incoming), time=self.ledger.now(), kind="install"
            )
            self.states_applied += 1
            return {"installed": True, "epoch": incoming.revocation_epoch}
        if incoming.revocation_epoch <= existing.revocation_epoch:
            self.stale_applies_ignored += 1
            return {"installed": False, "epoch": existing.revocation_epoch}
        self.ledger.store.apply_flip(
            serial,
            incoming.state,
            incoming.revocation_epoch,
            "install",
            self.ledger.now(),
        )
        self.states_applied += 1
        return {"installed": True, "epoch": incoming.revocation_epoch}

    # -- protocol: status -------------------------------------------------------------

    def status(self, payload: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Batched statuses: each record's state and epoch, signed on request.

        ``payload['signed']`` runs parallel to ``payload['serials']``.
        A quorum reader needs every replica's ``state`` + ``epoch`` to
        pick the winner but only one signature to prove it, so it flags
        the serials this replica should sign; those answers also carry
        a ``proof`` (:meth:`Ledger.status`, the RSA signature — nearly
        all of a status item's cost).
        """
        answers: List[Dict[str, Any]] = []
        for serial, signed in zip(payload["serials"], payload["signed"]):
            record = self.ledger.store.get(serial)
            if record is None:
                answers.append({"serial": serial, "error": "unknown serial"})
                continue
            answer = {
                "serial": serial,
                "epoch": record.revocation_epoch,
                "state": record.state.value,
            }
            if signed:
                answer["proof"] = self.ledger.status(self._identifier(serial))
            answers.append(answer)
        return answers

    # -- transport wiring -------------------------------------------------------------

    def rpc_handlers(self) -> Dict[str, Callable[[Any], Any]]:
        """Method table for endpoint registration (both transports)."""
        return {
            "claim": self.claim,
            "challenge": self.challenge,
            "revoke": self.revoke,
            "unrevoke": self.unrevoke,
            "apply_state": self.apply_state,
            "status": self.status,
            "digest": self.digest,
            "fetch_records": self.fetch_records,
            "install_record": self.install_record,
        }


class ClusterDirectory:
    """Maps status-proof fingerprints back to shard verification keys."""

    def __init__(self, shards: Optional[List[ClusterShard]] = None):
        self._by_fingerprint: Dict[str, ClusterShard] = {}
        for shard in shards or []:
            self.add(shard)

    def add(self, shard: ClusterShard) -> None:
        self._by_fingerprint[shard.fingerprint] = shard

    def verify(self, proof) -> bool:
        """True iff ``proof`` was signed by a known cluster shard."""
        shard = self._by_fingerprint.get(proof.ledger_fingerprint)
        return shard is not None and proof.verify(shard.public_key)

    def __len__(self) -> int:
        return len(self._by_fingerprint)
