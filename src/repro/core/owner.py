"""The owner toolkit: camera-side software.

Section 3.2: "When taking a photo, the camera (or owner-controlled
software) generates a unique key pair for the photo, hashes the photo,
and then encrypts the hash with the private key.  The owner then claims
the photo with a ledger ... The owner safely stores the original photo,
the private key, and the identifier, and then labels the photo."

:class:`OwnerToolkit` implements that flow: per-photo key pairs, claim,
label, revoke/unrevoke, and preparing appeals.  The toolkit never
reveals the owner's identity to anyone -- ownership is purely key
possession (Goal #1(iv)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TypeVar

import numpy as np

from repro.core.errors import ClaimError
from repro.core.identifiers import PhotoIdentifier
from repro.core.labeling import label_photo
from repro.crypto.signatures import KeyPair
from repro.crypto.timestamp import TimestampToken
from repro.crypto.tokens import PaymentToken
from repro.ledger.appeals import Appeal, AppealsProcess
from repro.ledger.ledger import Ledger
from repro.media.image import Photo
from repro.media.watermark import WatermarkCodec

__all__ = ["MediaOwner", "OwnerToolkit", "ClaimReceipt"]

Media = TypeVar("Media")  # a Photo or a Video: anything with content_hash()


@dataclass
class ClaimReceipt:
    """What the owner stores after claiming: identifier, key pair,
    content hash and the authenticated timestamp.

    The private key inside ``keypair`` is the sole proof of ownership;
    losing it forfeits control, leaking it transfers control.
    """

    identifier: PhotoIdentifier
    keypair: KeyPair
    content_hash: str
    timestamp: TimestampToken

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ClaimReceipt({self.identifier})"


class MediaOwner:
    """Per-item key pairs, claims and revoke/unrevoke for any media.

    The ledger does not care what a claim covers: anything with a
    ``content_hash()`` is claimed under a fresh key pair, and flips go
    through the same challenge-response ownership proof.  The photo and
    video toolkits add ``label`` (which :meth:`claim_and_label` calls).
    """

    def __init__(
        self, rng: Optional[np.random.Generator] = None, key_bits: int = 512
    ):
        self._rng = rng or np.random.default_rng(0)
        self._key_bits = int(key_bits)

    def claim(
        self,
        media: Media,
        ledger: Ledger,
        payment: Optional[PaymentToken] = None,
        initially_revoked: bool = False,
    ) -> ClaimReceipt:
        """Claim ownership of ``media`` on ``ledger``.

        Generates the per-item key pair, signs the content hash, and
        registers the claim.  ``initially_revoked=True`` implements the
        register-revoked-by-default usage of section 4.4.
        """
        keypair = KeyPair.generate(bits=self._key_bits, rng=self._rng)
        content_hash = media.content_hash()
        signature = keypair.sign(content_hash.encode("utf-8"))
        record = ledger.claim(
            content_hash=content_hash,
            content_signature=signature,
            public_key=keypair.public,
            payment=payment,
            initially_revoked=initially_revoked,
        )
        return ClaimReceipt(
            identifier=record.identifier,
            keypair=keypair,
            content_hash=content_hash,
            timestamp=record.timestamp,
        )

    def claim_and_label(
        self,
        media: Media,
        ledger: Ledger,
        payment: Optional[PaymentToken] = None,
        initially_revoked: bool = False,
    ) -> tuple[ClaimReceipt, Media]:
        """Claim then label in one step (the camera-software hot path)."""
        receipt = self.claim(
            media, ledger, payment=payment, initially_revoked=initially_revoked
        )
        return receipt, self.label(media, receipt)

    def revoke(self, receipt: ClaimReceipt, ledger: Ledger) -> None:
        """Revoke via challenge-response ownership proof."""
        self._flip(receipt, ledger, "revoke")

    def unrevoke(self, receipt: ClaimReceipt, ledger: Ledger) -> None:
        """Clear the revoked flag."""
        self._flip(receipt, ledger, "unrevoke")

    def _flip(self, receipt: ClaimReceipt, ledger: Ledger, action: str) -> None:
        if receipt.identifier.ledger_id != ledger.ledger_id:
            raise ClaimError(
                f"receipt is for ledger {receipt.identifier.ledger_id!r}, "
                f"not {ledger.ledger_id!r}"
            )
        nonce = ledger.make_challenge(receipt.identifier)
        payload = Ledger.ownership_payload(action, receipt.identifier, nonce)
        signature = receipt.keypair.sign_struct(payload)
        if action == "revoke":
            ledger.revoke(receipt.identifier, nonce, signature)
        else:
            ledger.unrevoke(receipt.identifier, nonce, signature)


class OwnerToolkit(MediaOwner):
    """Owner-side operations: claim, label, revoke, unrevoke, appeal.

    Parameters
    ----------
    rng:
        Seeded generator for reproducible key generation.
    key_bits:
        RSA modulus size for per-photo keys (512 keeps tests fast).
    watermark_codec:
        Codec used by :meth:`label`; defaults to the deployment-standard
        12-byte-payload codec matching compact identifiers.
    """

    def __init__(
        self,
        rng: Optional[np.random.Generator] = None,
        key_bits: int = 512,
        watermark_codec: Optional[WatermarkCodec] = None,
    ):
        super().__init__(rng, key_bits)
        self.watermark_codec = watermark_codec or WatermarkCodec(payload_len=12)

    # -- labeling --------------------------------------------------------------

    def label(self, photo: Photo, receipt: ClaimReceipt) -> Photo:
        """Attach the identifier as metadata and watermark.

        Returns the labeled copy; the owner keeps the original unlabeled
        photo private (it is the appeals evidence).
        """
        return label_photo(photo, receipt.identifier, self.watermark_codec)

    # -- appeals -------------------------------------------------------------------

    def prepare_appeal(
        self,
        receipt: ClaimReceipt,
        original_photo: Photo,
        process: AppealsProcess,
        copy_identifier: PhotoIdentifier,
        copy_photo: Photo,
    ) -> Appeal:
        """Assemble an appeal against a re-claimed copy.

        ``original_photo`` must be the exact photo that was claimed (the
        stored original), since its hash must match the receipt.
        """
        if original_photo.content_hash() != receipt.content_hash:
            raise ClaimError(
                "presented original does not match the claimed content hash"
            )
        nonce = process.make_challenge()
        payload = AppealsProcess.ownership_payload(nonce, receipt.content_hash)
        signature = receipt.keypair.sign_struct(payload)
        return Appeal(
            original_photo=original_photo,
            original_content_hash=receipt.content_hash,
            original_public_key=receipt.keypair.public,
            original_timestamp=receipt.timestamp,
            ownership_nonce=nonce,
            ownership_signature=signature,
            copy_identifier=copy_identifier,
            copy_photo=copy_photo,
        )
