"""The ledger: claim, revoke, unrevoke, status.

Implements the section 3.2 protocol:

* **Claiming**: the owner presents the photo's content hash, its
  signature under the photo's private key ("the hash ... encrypted with
  the private key"), and the public key.  The ledger obtains an
  authenticated timestamp over a digest binding (content hash, public
  key) from a timestamp authority, stores the record, and returns the
  identifier.  Optionally a payment token is redeemed -- ledgers are
  commercial services.
* **Revoking/unrevoking**: a challenge-response ownership proof.  The
  ledger issues a nonce; the owner signs (action, identifier, nonce)
  with the photo's private key; the ledger verifies with the stored
  public key and flips the flag.  No owner identity is ever involved
  (Goal #1(iv)).
* **Status**: signed :class:`~repro.ledger.proofs.StatusProof`
  statements, counted so experiments can measure ledger load.

The class is wire-agnostic: in-process callers invoke methods directly;
the network simulator wraps them in RPC handlers.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.errors import ClaimError, RevocationError
from repro.core.identifiers import PhotoIdentifier
from repro.crypto.signatures import KeyPair, PublicKey, Signature
from repro.crypto.timestamp import TimestampAuthority
from repro.crypto.tokens import PaymentToken, TokenError, TokenIssuer
from repro.ledger.proofs import StatusProof
from repro.ledger.records import ClaimRecord, RevocationState, claim_digest
from repro.ledger.storage import LedgerStore

__all__ = ["Ledger", "LedgerConfig"]


@dataclass
class LedgerConfig:
    """Ledger policy knobs.

    Attributes
    ----------
    require_payment:
        When True, claims must carry a valid, unspent payment token.
    allow_revocation:
        Human-rights archive ledgers (section 5, censorship discussion)
        set this False: claims are permanent records that can never be
        revoked, so coercion cannot disappear evidence.
    challenge_ttl:
        Seconds a revocation challenge stays valid.
    require_provenance:
        When True, claims must carry a verifiable C2PA-style provenance
        manifest whose final content hash matches the claimed hash
        (section 3.1: C2PA infrastructure "could be extended to act as
        a more broadly used ledger").  Raises the bar against
        re-claiming stolen copies: the thief has no capture-rooted
        chain for the pixels.
    """

    require_payment: bool = False
    allow_revocation: bool = True
    challenge_ttl: float = 300.0
    require_provenance: bool = False


class Ledger:
    """One commercial ledger service."""

    def __init__(
        self,
        ledger_id: str,
        timestamp_authority: TimestampAuthority,
        keypair: Optional[KeyPair] = None,
        clock: Optional[Callable[[], float]] = None,
        config: Optional[LedgerConfig] = None,
        token_issuer: Optional[TokenIssuer] = None,
    ):
        if not ledger_id or ":" in ledger_id or "|" in ledger_id:
            raise ValueError(
                "ledger id must be non-empty and contain neither ':' nor '|'"
            )
        self.ledger_id = ledger_id
        self._tsa = timestamp_authority
        self._keypair = keypair or KeyPair.generate()
        self._clock = clock
        self._logical_time = 0.0
        self.config = config or LedgerConfig()
        self._token_issuer = token_issuer
        self.store = LedgerStore()
        self._challenges: Dict[tuple[int, bytes], float] = {}
        # Load counters, read by the E5 bench.
        self.claims_served = 0
        self.status_queries_served = 0
        self.revocations_served = 0

    # -- time -------------------------------------------------------------------

    def now(self) -> float:
        if self._clock is not None:
            return self._clock()
        self._logical_time += 1.0
        return self._logical_time

    # -- identity -----------------------------------------------------------------

    @property
    def public_key(self) -> PublicKey:
        return self._keypair.public

    @property
    def fingerprint(self) -> str:
        return self._keypair.fingerprint

    @property
    def timestamp_authority(self) -> TimestampAuthority:
        return self._tsa

    # -- claiming -----------------------------------------------------------------

    def claim(
        self,
        content_hash: str,
        content_signature: Signature,
        public_key: PublicKey,
        payment: Optional[PaymentToken] = None,
        custodial: bool = False,
        initially_revoked: bool = False,
        provenance=None,
        serial: Optional[int] = None,
        timestamp=None,
    ) -> ClaimRecord:
        """Enter a photo into the ledger; returns the stored record.

        ``initially_revoked`` supports the section 4.4 usage pattern
        where "many photos will be automatically registered and revoked"
        at creation, with owners unrevoking the ones they share.

        ``provenance`` is an optional
        :class:`repro.media.provenance.ProvenanceManifest`; mandatory
        (and verified) when the ledger's config sets
        ``require_provenance``.

        ``serial`` and ``timestamp`` support replicated deployments
        (:mod:`repro.cluster`): every replica of a claim must store a
        byte-identical record, so the coordinator picks the serial
        (content-derived) and fetches one TSA token, then hands both to
        each replica instead of letting them allocate/fetch their own.
        A provided timestamp must verify under this ledger's TSA and
        bind the claimed (content hash, public key) digest.
        """
        if not public_key.verify(content_hash.encode("utf-8"), content_signature):
            raise ClaimError(
                "content signature does not verify under the presented key"
            )
        if self.config.require_provenance:
            self._verify_provenance(content_hash, provenance)
        if self.config.require_payment:
            if payment is None:
                raise ClaimError("this ledger requires payment for claims")
            if self._token_issuer is None:
                raise ClaimError("ledger misconfigured: no token issuer")
            try:
                self._token_issuer.redeem(payment)
            except TokenError as exc:
                raise ClaimError(f"payment rejected: {exc}") from exc
        if serial is None:
            serial = self.store.allocate_serial()
        elif serial in self.store:
            raise ClaimError(f"serial {serial} is already claimed")
        identifier = PhotoIdentifier(ledger_id=self.ledger_id, serial=serial)
        digest = claim_digest(content_hash, public_key)
        if timestamp is None:
            timestamp = self._tsa.issue(digest)
        elif timestamp.digest != digest or not self._tsa.verify(timestamp):
            raise ClaimError(
                "provided timestamp does not authenticate this claim"
            )
        state = (
            RevocationState.REVOKED
            if initially_revoked
            else RevocationState.NOT_REVOKED
        )
        record = ClaimRecord(
            identifier=identifier,
            content_hash=content_hash,
            content_signature=content_signature,
            public_key=public_key,
            timestamp=timestamp,
            state=state,
            custodial=custodial,
        )
        self.store.put(record, time=self.now())
        self.claims_served += 1
        return record

    def _verify_provenance(self, content_hash: str, provenance) -> None:
        """Provenance gate: intact capture-rooted chain ending at the
        claimed content hash."""
        from repro.media.provenance import ProvenanceError

        if provenance is None:
            raise ClaimError("this ledger requires a provenance manifest")
        try:
            provenance.verify_chain()
        except ProvenanceError as exc:
            raise ClaimError(f"provenance chain invalid: {exc}") from exc
        if (
            not provenance.assertions
            or provenance.assertions[-1].content_hash != content_hash
        ):
            raise ClaimError(
                "provenance chain does not terminate at the claimed content"
            )

    # -- ownership challenges ----------------------------------------------------------

    def make_challenge(self, identifier: PhotoIdentifier) -> bytes:
        """Issue a nonce the owner must sign to prove ownership."""
        record = self._require_record(identifier)
        nonce = secrets.token_bytes(16)
        now = self.now()
        # A nonce whose flip never arrives is otherwise never removed.
        # The dict is in issue order, so the expired ones lead it.
        while self._challenges:
            oldest = next(iter(self._challenges))
            if now - self._challenges[oldest] <= self.config.challenge_ttl:
                break
            del self._challenges[oldest]
        self._challenges[(record.identifier.serial, nonce)] = now
        return nonce

    def _consume_challenge(self, serial: int, nonce: bytes) -> None:
        key = (serial, nonce)
        issued_at = self._challenges.pop(key, None)
        if issued_at is None:
            raise RevocationError("unknown or already-used challenge nonce")
        if self.now() - issued_at > self.config.challenge_ttl:
            raise RevocationError("challenge expired")

    @staticmethod
    def ownership_payload(
        action: str, identifier: PhotoIdentifier, nonce: bytes
    ) -> dict:
        """The structure an owner signs to authorize ``action``.

        Exposed so owner toolkits and ledgers agree on the encoding.
        """
        return {
            "action": action,
            "identifier": identifier.to_string(),
            "nonce": nonce,
        }

    def _verify_ownership(
        self,
        action: str,
        record: ClaimRecord,
        nonce: bytes,
        signature: Signature,
    ) -> None:
        self._consume_challenge(record.identifier.serial, nonce)
        payload = self.ownership_payload(action, record.identifier, nonce)
        if not record.public_key.verify_struct(payload, signature):
            raise RevocationError(
                f"ownership proof for {action} failed signature verification"
            )

    # -- revocation ------------------------------------------------------------------

    def revoke(
        self, identifier: PhotoIdentifier, nonce: bytes, signature: Signature
    ) -> ClaimRecord:
        """Mark a photo revoked after verifying ownership."""
        record = self._require_record(identifier)
        if not self.config.allow_revocation:
            raise RevocationError(
                f"ledger {self.ledger_id!r} is a permanent archive; "
                "revocation is disabled by policy"
            )
        self._verify_ownership("revoke", record, nonce, signature)
        if record.state is RevocationState.PERMANENTLY_REVOKED:
            raise RevocationError("photo is permanently revoked")
        if record.state is RevocationState.NOT_REVOKED:
            self.store.apply_flip(
                identifier.serial,
                RevocationState.REVOKED,
                record.revocation_epoch + 1,
                "revoke",
                self.now(),
            )
        self.revocations_served += 1
        return record

    def unrevoke(
        self, identifier: PhotoIdentifier, nonce: bytes, signature: Signature
    ) -> ClaimRecord:
        """Clear the revoked flag after verifying ownership."""
        record = self._require_record(identifier)
        if not self.config.allow_revocation:
            raise RevocationError(
                f"ledger {self.ledger_id!r} is a permanent archive; "
                "its records never change revocation state"
            )
        self._verify_ownership("unrevoke", record, nonce, signature)
        if record.state is RevocationState.PERMANENTLY_REVOKED:
            raise RevocationError(
                "photo was permanently revoked by the appeals process"
            )
        if record.state is RevocationState.REVOKED:
            self.store.apply_flip(
                identifier.serial,
                RevocationState.NOT_REVOKED,
                record.revocation_epoch + 1,
                "unrevoke",
                self.now(),
            )
        self.revocations_served += 1
        return record

    def permanently_revoke(self, identifier: PhotoIdentifier) -> ClaimRecord:
        """Appeals-process outcome: irreversible revocation of a copy."""
        record = self._require_record(identifier)
        self.store.apply_flip(
            identifier.serial,
            RevocationState.PERMANENTLY_REVOKED,
            record.revocation_epoch + 1,
            "permanent_revoke",
            self.now(),
        )
        return record

    # -- status -----------------------------------------------------------------------

    def status(self, identifier: PhotoIdentifier) -> StatusProof:
        """Signed revocation status; the hot-path query of section 4."""
        record = self._require_record(identifier)
        self.status_queries_served += 1
        return self._sign_status(record)

    def status_batch(self, identifiers) -> list:
        """Signed statuses for many identifiers in one request.

        The aggregator recheck path (section 3.2's "periodically
        rechecks") sweeps thousands of photos at once; batching
        amortizes the request overhead.  Each answer is individually
        signed (so proofs stay independently verifiable and cacheable)
        and each counts toward the load counters.
        """
        return [self.status(identifier) for identifier in identifiers]

    def _sign_status(self, record: ClaimRecord) -> StatusProof:
        checked_at = self.now()
        payload = {
            "identifier": record.identifier.to_string(),
            "revoked": record.is_revoked,
            "permanent": record.state is RevocationState.PERMANENTLY_REVOKED,
            "checked_at": checked_at,
            "ledger": self.fingerprint,
        }
        return StatusProof(
            identifier=record.identifier.to_string(),
            revoked=record.is_revoked,
            permanently_revoked=record.state is RevocationState.PERMANENTLY_REVOKED,
            checked_at=checked_at,
            ledger_fingerprint=self.fingerprint,
            signature=self._keypair.sign_struct(payload),
        )

    # -- lookup -------------------------------------------------------------------------

    def record(self, identifier: PhotoIdentifier) -> Optional[ClaimRecord]:
        if identifier.ledger_id != self.ledger_id:
            return None
        return self.store.get(identifier.serial)

    def _require_record(self, identifier: PhotoIdentifier) -> ClaimRecord:
        record = self.record(identifier)
        if record is None:
            raise RevocationError(
                f"no record for {identifier} on ledger {self.ledger_id!r}"
            )
        return record

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Ledger({self.ledger_id!r}, records={len(self.store)})"
