"""The upload pipeline: section 3.2's rules, step by step.

1. Inspect metadata and watermark.  "If they agree, the site then
   checks with the ledger (using the identifier); if the image has been
   revoked, the upload is denied."
2. "If the explicit metadata or watermark disagree or one of them is
   missing ... the upload is also denied."
3. "If a photo has neither a watermark or metadata indicating it has
   been claimed, the aggregator can either reject the photo or claim it
   (and watermark it) in a custodial role."
4. Robust-hash database check: a new upload perceptually matching
   hosted content must carry the matched original's label, "so that
   revoking the original will also remove images derived from it."

Legacy (non-IRS) aggregators accept everything and strip metadata.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.aggregator.aggregator import ContentAggregator, HostedPhoto
from repro.aggregator.hashdb import RobustHashDatabase
from repro.core.identifiers import PhotoIdentifier
from repro.core.labeling import LabelState, read_label
from repro.core.owner import OwnerToolkit
from repro.ledger.ledger import Ledger
from repro.media.image import Photo
from repro.media.watermark import WatermarkCodec

__all__ = ["UploadPipeline", "UploadOutcome", "UploadDecision"]


class UploadDecision(enum.Enum):
    ACCEPTED = "accepted"
    ACCEPTED_CUSTODIAL = "accepted_custodial"
    DENIED_REVOKED = "denied_revoked"
    DENIED_LABEL_CONFLICT = "denied_label_conflict"
    DENIED_LABEL_PARTIAL = "denied_label_partial"
    DENIED_UNLABELED = "denied_unlabeled"
    DENIED_DERIVATIVE = "denied_derivative"

    @property
    def accepted(self) -> bool:
        return self in (UploadDecision.ACCEPTED, UploadDecision.ACCEPTED_CUSTODIAL)


@dataclass
class UploadOutcome:
    decision: UploadDecision
    detail: str
    hosted: Optional[HostedPhoto] = None
    identifier: Optional[PhotoIdentifier] = None


class UploadPipeline:
    """Processes uploads for one aggregator.

    Parameters
    ----------
    aggregator:
        The hosting site.
    custodial_ledger:
        Where custodial claims are registered (the aggregator's own
        ledger relationship).  Required when the aggregator's config
        enables custodial claims.
    custodial_toolkit:
        Owner toolkit acting for the aggregator when claiming
        custodially (holds the aggregator's keys).
    hash_database:
        Robust-hash database of hosted content; filled on accept.
    """

    def __init__(
        self,
        aggregator: ContentAggregator,
        watermark_codec: Optional[WatermarkCodec] = None,
        custodial_ledger: Optional[Ledger] = None,
        custodial_toolkit: Optional[OwnerToolkit] = None,
        hash_database: Optional[RobustHashDatabase] = None,
    ):
        self.aggregator = aggregator
        self.codec = watermark_codec or WatermarkCodec(payload_len=12)
        self.custodial_ledger = custodial_ledger
        self.custodial_toolkit = custodial_toolkit
        self.hash_database = hash_database
        self.uploads_processed = 0
        # Receipts for custodial claims, kept so the aggregator can
        # honour later revocation requests (the whole point of claiming
        # "in a custodial role so that it can later be revoked").
        self.custodial_receipts: dict = {}
        if aggregator.config.custodial_claims and (
            custodial_ledger is None or custodial_toolkit is None
        ):
            raise ValueError(
                "custodial claims enabled but no custodial ledger/toolkit given"
            )

    def upload(self, name: str, photo: Photo) -> UploadOutcome:
        """Run one upload through the pipeline."""
        self.uploads_processed += 1
        config = self.aggregator.config

        if not config.supports_irs:
            # Legacy site: accept everything, strip everything.
            hosted = self.aggregator.host(name, photo, identifier=None)
            return UploadOutcome(
                UploadDecision.ACCEPTED, "legacy aggregator, no checks", hosted
            )

        label = read_label(photo, self.codec, registry=self.aggregator.registry)

        if label.state is LabelState.DISAGREE:
            return UploadOutcome(
                UploadDecision.DENIED_LABEL_CONFLICT,
                "metadata and watermark identify different claims",
            )
        if label.state in (LabelState.METADATA_ONLY, LabelState.WATERMARK_ONLY):
            return UploadOutcome(
                UploadDecision.DENIED_LABEL_PARTIAL,
                f"one label channel missing ({label.state.value}); "
                "photo was modified in a way that lost labeling",
            )

        if label.state is LabelState.BOTH_AGREE:
            return self._handle_labeled(name, photo, label.identifier)

        return self._handle_unlabeled(name, photo)

    # -- labeled uploads -------------------------------------------------------------

    def _handle_labeled(
        self, name: str, photo: Photo, identifier: PhotoIdentifier
    ) -> UploadOutcome:
        proof = self.aggregator.registry.status(identifier)
        if proof.revoked:
            return UploadOutcome(
                UploadDecision.DENIED_REVOKED,
                "owner has revoked this photo",
                identifier=identifier,
            )
        hosted = self.aggregator.host(name, photo, identifier, proof=proof)
        if self.hash_database is not None:
            self.hash_database.add_photo(identifier, photo)
        return UploadOutcome(
            UploadDecision.ACCEPTED, "label verified, not revoked", hosted, identifier
        )

    # -- unlabeled uploads ---------------------------------------------------------------

    def _handle_unlabeled(self, name: str, photo: Photo) -> UploadOutcome:
        config = self.aggregator.config

        # Derivative check first: an unlabeled photo that perceptually
        # matches hosted labeled content is a stripped derivative; deny
        # and point at the original (uploader should carry its label).
        if config.check_hash_database and self.hash_database is not None:
            match = self.hash_database.find_match(photo)
            if match is not None:
                return UploadOutcome(
                    UploadDecision.DENIED_DERIVATIVE,
                    f"perceptually matches hosted claim {match.identifier} "
                    f"(distance {match.distance:.3f}); re-upload with the "
                    "original's label",
                    identifier=match.identifier,
                )

        if not config.custodial_claims:
            return UploadOutcome(
                UploadDecision.DENIED_UNLABELED,
                "unlabeled uploads are rejected by this site's policy",
            )

        # Custodial claim: the site claims and labels the photo itself
        # so it can be revoked later (e.g. via appeals).
        receipt, labeled = self.custodial_toolkit.claim_and_label(
            photo, self.custodial_ledger
        )
        record = self.custodial_ledger.record(receipt.identifier)
        record.custodial = True
        proof = self.aggregator.registry.status(receipt.identifier)
        hosted = self.aggregator.host(name, labeled, receipt.identifier, proof=proof)
        if self.hash_database is not None:
            self.hash_database.add_photo(receipt.identifier, labeled)
        self.custodial_receipts[name] = receipt
        return UploadOutcome(
            UploadDecision.ACCEPTED_CUSTODIAL,
            "unlabeled upload claimed custodially",
            hosted,
            receipt.identifier,
        )

    # -- custodial takedowns -------------------------------------------------------

    def revoke_custodial(self, name: str) -> None:
        """Honour a takedown request for a custodially claimed upload.

        The aggregator, holding the custodial key pair, revokes its own
        claim -- so the photo comes down here *and* anywhere else IRS
        participants encounter copies of it (they all resolve to the
        same custodial claim via the embedded label).
        """
        receipt = self.custodial_receipts.get(name)
        if receipt is None:
            raise KeyError(f"no custodial claim held for {name!r}")
        self.custodial_toolkit.revoke(receipt, self.custodial_ledger)
        self.aggregator.take_down(name, reason="custodial claim revoked on request")
