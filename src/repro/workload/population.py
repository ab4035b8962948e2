"""Photo populations at scale.

Load experiments need ledgers holding 10^4-10^6 claims.  Full claims
(fresh RSA key pair per photo, per the protocol) cost ~30 ms each in
keygen alone, so bulk population offers two fidelity levels:

* ``full_crypto=True`` -- every claim goes through
  :meth:`repro.ledger.ledger.Ledger.claim` with a shared key pair and a
  real signature/timestamp per record.  Protocol-faithful; ~1 kHz.
* ``full_crypto=False`` (default) -- records are synthesized directly
  into the ledger store with one shared signature/timestamp object.
  This skips per-record crypto *only*; identifiers, serials, revocation
  states, Bloom exports and status queries behave identically, which is
  all the load experiments measure.  ~100 kHz.

The revoked fraction reflects section 4.4's usage model: "many photos
will be automatically registered and revoked ... consequently, a high
fraction of *total* photos will be revoked."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.identifiers import PhotoIdentifier
from repro.crypto.hashing import sha256_hex
from repro.crypto.signatures import KeyPair
from repro.ledger.ledger import Ledger
from repro.ledger.records import ClaimRecord, RevocationState, claim_digest

__all__ = ["PhotoPopulation", "populate_ledger"]


@dataclass
class PhotoPopulation:
    """Handle over a bulk-claimed population.

    Attributes
    ----------
    ledger:
        The ledger holding the claims.
    identifiers:
        All identifiers, in creation order (index == photo number).
    revoked_mask:
        Boolean array aligned with ``identifiers``.
    """

    ledger: Ledger
    identifiers: List[PhotoIdentifier]
    revoked_mask: np.ndarray

    @property
    def size(self) -> int:
        return len(self.identifiers)

    @property
    def num_revoked(self) -> int:
        return int(self.revoked_mask.sum())

    @property
    def revoked_fraction(self) -> float:
        return self.num_revoked / self.size if self.size else 0.0

    def compact_identifiers(self) -> List[bytes]:
        return [identifier.to_compact() for identifier in self.identifiers]

    def viewable_mask(self) -> np.ndarray:
        """Photos available for viewing (i.e. not revoked)."""
        return ~self.revoked_mask


def populate_ledger(
    ledger: Ledger,
    count: int,
    revoked_fraction: float,
    rng: np.random.Generator,
    full_crypto: bool = False,
    keypair: Optional[KeyPair] = None,
) -> PhotoPopulation:
    """Claim ``count`` synthetic photos on ``ledger``.

    Parameters
    ----------
    revoked_fraction:
        Probability each photo is registered in the revoked state.
    full_crypto:
        See module docstring; choose True when the experiment exercises
        signatures/timestamps per record, False for pure load shaping.
    keypair:
        Shared signing key; generated when omitted.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if not 0.0 <= revoked_fraction <= 1.0:
        raise ValueError("revoked_fraction must be in [0, 1]")
    keypair = keypair or KeyPair.generate(bits=512, rng=rng)
    revoked_mask = rng.uniform(size=count) < revoked_fraction
    identifiers: List[PhotoIdentifier] = []

    if full_crypto:
        for i in range(count):
            content_hash = sha256_hex(
                f"{ledger.ledger_id}:bulk:{i}:{rng.integers(2**63)}".encode()
            )
            signature = keypair.sign(content_hash.encode("utf-8"))
            record = ledger.claim(
                content_hash=content_hash,
                content_signature=signature,
                public_key=keypair.public,
                initially_revoked=bool(revoked_mask[i]),
            )
            identifiers.append(record.identifier)
        return PhotoPopulation(
            ledger=ledger, identifiers=identifiers, revoked_mask=revoked_mask
        )

    # Fast path: one shared signature and timestamp object; records are
    # installed directly.  Documented simulation shortcut -- identifiers
    # and revocation state are fully real.
    shared_hash = sha256_hex(f"{ledger.ledger_id}:bulk-shared".encode())
    shared_signature = keypair.sign(shared_hash.encode("utf-8"))
    shared_timestamp = ledger.timestamp_authority.issue(
        claim_digest(shared_hash, keypair.public)
    )
    for i in range(count):
        serial = ledger.store.allocate_serial()
        identifier = PhotoIdentifier(ledger_id=ledger.ledger_id, serial=serial)
        record = ClaimRecord(
            identifier=identifier,
            content_hash=shared_hash,
            content_signature=shared_signature,
            public_key=keypair.public,
            timestamp=shared_timestamp,
            state=(
                RevocationState.REVOKED
                if revoked_mask[i]
                else RevocationState.NOT_REVOKED
            ),
        )
        ledger.store.put(record)
        identifiers.append(identifier)
    ledger.claims_served += count
    return PhotoPopulation(
        ledger=ledger, identifiers=identifiers, revoked_mask=revoked_mask
    )
