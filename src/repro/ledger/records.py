"""Ledger claim records.

Per section 3.2, a claim record stores "the encrypted hash, the public
key, an authenticated timestamp (as in [1]), and a Boolean 'revoked'
flag".  We add a *permanently revoked* state, which the appeals process
uses for fraudulently re-claimed copies ("they then mark it as
permanently revoked").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.identifiers import PhotoIdentifier
from repro.crypto.hashing import hash_struct
from repro.crypto.signatures import PublicKey, Signature
from repro.crypto.timestamp import TimestampToken

__all__ = ["ClaimRecord", "RevocationState", "claim_digest"]


class RevocationState(enum.Enum):
    """Lifecycle of a claim's revocation flag."""

    NOT_REVOKED = "not_revoked"
    REVOKED = "revoked"
    PERMANENTLY_REVOKED = "permanently_revoked"

    @property
    def is_revoked(self) -> bool:
        return self is not RevocationState.NOT_REVOKED


def claim_digest(content_hash: str, public_key: PublicKey) -> bytes:
    """The digest a claim's authenticated timestamp binds.

    Binding both the content hash and the public key ensures the
    timestamp proves *this key pair* claimed *this content* at that
    time -- the fact the appeals process adjudicates on.
    """
    return hash_struct({"content_hash": content_hash, "public_key": public_key.to_dict()})


@dataclass(slots=True)
class ClaimRecord:
    """One photo's entry in a ledger.

    Attributes
    ----------
    identifier:
        The (ledger, serial) identifier handed back to the owner.
    content_hash:
        Hex SHA-256 of the photo pixels at claim time.
    content_signature:
        The owner's signature over the content hash ("the hash ...
        encrypted with the private key").
    public_key:
        Verification key for ownership proofs.
    timestamp:
        Authenticated timestamp over :func:`claim_digest`.
    state:
        Revocation state; ``REVOKED`` can be undone by the owner,
        ``PERMANENTLY_REVOKED`` (set by appeals) cannot.
    custodial:
        True when an aggregator claimed the photo in a custodial role
        (section 3.2: unlabeled uploads may be claimed by the site so
        they can later be revoked).
    """

    identifier: PhotoIdentifier
    content_hash: str
    content_signature: Signature
    public_key: PublicKey
    timestamp: TimestampToken
    state: RevocationState = RevocationState.NOT_REVOKED
    custodial: bool = False
    revocation_epoch: int = field(default=0)

    @property
    def is_revoked(self) -> bool:
        return self.state.is_revoked

    def to_payload(self) -> dict:
        """JSON-able form for event-log payloads and snapshots.

        Every field round-trips through :meth:`from_payload`; bytes are
        hex-encoded so the structure is plain JSON, which is how both
        event bodies and snapshots are encoded.
        """
        return {
            "identifier": self.identifier.to_string(),
            "content_hash": self.content_hash,
            "content_signature": self.content_signature.to_dict(),
            "public_key": self.public_key.to_dict(),
            "timestamp": self.timestamp.to_dict(),
            "state": self.state.value,
            "custodial": self.custodial,
            "epoch": self.revocation_epoch,
        }

    @staticmethod
    def from_payload(data: dict) -> "ClaimRecord":
        return ClaimRecord(
            identifier=PhotoIdentifier.from_string(data["identifier"]),
            content_hash=data["content_hash"],
            content_signature=Signature.from_dict(data["content_signature"]),
            public_key=PublicKey.from_dict(data["public_key"]),
            timestamp=TimestampToken.from_dict(data["timestamp"]),
            state=RevocationState(data["state"]),
            custodial=data["custodial"],
            revocation_epoch=data["epoch"],
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ClaimRecord({self.identifier}, state={self.state.value}, "
            f"custodial={self.custodial})"
        )
