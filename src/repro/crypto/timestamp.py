"""RFC 3161-style authenticated timestamps.

Ledger claim records carry "an authenticated timestamp (as in [1])"
(paper section 3.2, citing RFC 3161).  The timestamp is what makes the
appeals process decidable: when two parties claim the same photo, the
earlier authenticated timestamp identifies the original owner.

:class:`TimestampAuthority` signs (digest, time, serial) triples.  It is
deliberately independent of any ledger: a ledger *requests* timestamps
from a TSA whose key its verifiers trust, so a malicious ledger cannot
backdate claims (section 5, "Malicious Ledgers?").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.crypto.signatures import KeyPair, PublicKey, Signature

__all__ = ["TimestampAuthority", "TimestampToken", "TimestampError"]


class TimestampError(Exception):
    """Raised on invalid timestamp tokens."""


@dataclass(frozen=True, slots=True)
class TimestampToken:
    """A signed statement that ``digest`` existed at ``time``.

    ``serial`` is a strictly increasing per-authority counter, so tokens
    from one TSA are totally ordered even at equal times.
    """

    digest: bytes
    time: float
    serial: int
    authority_fingerprint: str
    signature: Signature

    def payload(self) -> dict:
        return {
            "digest": self.digest,
            "time": self.time,
            "serial": self.serial,
            "authority": self.authority_fingerprint,
        }

    def verify(self, authority_key: PublicKey) -> bool:
        """Return True iff this token was signed by ``authority_key``."""
        return authority_key.verify_struct(self.payload(), self.signature)

    def to_dict(self) -> dict:
        """JSON-able form (digest hex-encoded) for event-log payloads."""
        return {
            "digest": self.digest.hex(),
            "time": self.time,
            "serial": self.serial,
            "authority": self.authority_fingerprint,
            "signature": self.signature.to_dict(),
        }

    @staticmethod
    def from_dict(data: dict) -> "TimestampToken":
        return TimestampToken(
            digest=bytes.fromhex(data["digest"]),
            time=data["time"],
            serial=data["serial"],
            authority_fingerprint=data["authority"],
            signature=Signature.from_dict(data["signature"]),
        )

    def precedes(self, other: "TimestampToken") -> bool:
        """Total order on tokens: earlier time wins, serial breaks ties.

        Only meaningful for tokens from the same authority; cross-TSA
        comparisons fall back to time alone.
        """
        if self.authority_fingerprint == other.authority_fingerprint:
            return (self.time, self.serial) < (other.time, other.serial)
        return self.time < other.time


class TimestampAuthority:
    """Issues authenticated timestamps over digests.

    Parameters
    ----------
    keypair:
        Signing key.  Generated automatically when omitted.
    clock:
        Zero-argument callable returning the current time.  Defaults to
        a monotonic logical clock starting at 0.0 so in-process tests
        are deterministic; the network simulator passes its own clock.
    """

    def __init__(
        self,
        keypair: Optional[KeyPair] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self._keypair = keypair or KeyPair.generate()
        self._serial = 0
        self._logical_time = 0.0
        self._clock = clock

    @property
    def public_key(self) -> PublicKey:
        return self._keypair.public

    @property
    def fingerprint(self) -> str:
        return self._keypair.fingerprint

    def _now(self) -> float:
        if self._clock is not None:
            return self._clock()
        # Logical clock: strictly increasing, deterministic.
        self._logical_time += 1.0
        return self._logical_time

    def issue(self, digest: bytes) -> TimestampToken:
        """Issue a signed timestamp token over ``digest``."""
        if not isinstance(digest, bytes) or len(digest) == 0:
            raise TimestampError("digest must be non-empty bytes")
        self._serial += 1
        token_time = self._now()
        payload = {
            "digest": digest,
            "time": token_time,
            "serial": self._serial,
            "authority": self.fingerprint,
        }
        signature = self._keypair.sign_struct(payload)
        return TimestampToken(
            digest=digest,
            time=token_time,
            serial=self._serial,
            authority_fingerprint=self.fingerprint,
            signature=signature,
        )

    def verify(self, token: TimestampToken) -> bool:
        """Verify one of this authority's own tokens."""
        if token.authority_fingerprint != self.fingerprint:
            return False
        return token.verify(self.public_key)
