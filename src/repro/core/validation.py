"""Validation: "checking that a photo has not been revoked; this is
required before a photo can be displayed, saved to disk, or shared"
(section 3.1).

Two validation postures exist in the paper:

* **Upload posture** (aggregators, section 3.2): metadata and watermark
  must both be present and agree; disagreement or partial loss denies
  the upload.  Strict, because uploads gate wide redistribution.
* **Viewing posture** (browser extension, section 4): photos arrive
  from sites that may or may not preserve labels; the extension checks
  whatever label channel is available.  Cheap, because it runs per
  rendered image.  The default viewing configuration trusts metadata
  without extracting the watermark (extraction costs ~ms per photo and
  the threat model for *viewing* is benign users, Nongoal #1).

:class:`Validator` implements both through :class:`ValidationPolicy`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.errors import LedgerUnavailableError
from repro.core.identifiers import PhotoIdentifier
from repro.core.labeling import LabelReadResult, LabelState, read_label
from repro.ledger.proofs import StatusProof
from repro.media.image import Photo
from repro.media.watermark import WatermarkCodec

__all__ = [
    "Validator",
    "ValidationPolicy",
    "ValidationResult",
    "ValidationDecision",
    "ValidationOutcome",
]


class ValidationDecision(enum.Enum):
    """Verdict on the requested action (display/save/share)."""

    ALLOW = "allow"
    DENY_REVOKED = "deny_revoked"
    DENY_LABEL_CONFLICT = "deny_label_conflict"
    DENY_LABEL_PARTIAL = "deny_label_partial"
    DENY_UNLABELED = "deny_unlabeled"
    DENY_LEDGER_UNAVAILABLE = "deny_ledger_unavailable"

    @property
    def allowed(self) -> bool:
        return self is ValidationDecision.ALLOW


# Backwards-friendly alias used in docs/examples.
ValidationOutcome = ValidationDecision


@dataclass
class ValidationPolicy:
    """Knobs selecting the posture.

    Attributes
    ----------
    check_watermark:
        Extract the watermark and require channel agreement (upload
        posture) vs trust metadata alone (viewing posture).
    allow_unlabeled:
        What to do with photos carrying no label at all.  True for
        viewing (most of the web is unclaimed); False for aggregators
        that reject or custodially claim unlabeled uploads.
    allow_partial_label:
        Whether a single surviving channel is acceptable.  Section 3.2
        denies uploads on partial labels; viewing-posture deployments
        may choose to validate on the surviving channel instead of
        refusing to render.
    fail_closed:
        When the ledger is unreachable, deny (True) or allow (False).
        Uploads fail closed; rendering fails open so a ledger outage
        does not blank the web.
    """

    check_watermark: bool = True
    allow_unlabeled: bool = True
    allow_partial_label: bool = False
    fail_closed: bool = True

    @classmethod
    def upload(cls) -> "ValidationPolicy":
        """Aggregator upload posture (section 3.2 rules, verbatim)."""
        return cls(
            check_watermark=True,
            allow_unlabeled=False,
            allow_partial_label=False,
            fail_closed=True,
        )

    @classmethod
    def viewing(cls) -> "ValidationPolicy":
        """Browser extension posture: fast, fail-open, metadata-driven."""
        return cls(
            check_watermark=False,
            allow_unlabeled=True,
            allow_partial_label=True,
            fail_closed=False,
        )


@dataclass
class ValidationResult:
    """Outcome of validating one photo."""

    decision: ValidationDecision
    label: LabelReadResult
    identifier: Optional[PhotoIdentifier] = None
    proof: Optional[StatusProof] = None
    detail: str = ""

    @property
    def allowed(self) -> bool:
        return self.decision.allowed


#: A status source maps an identifier to a signed status proof.  The
#: registry provides the direct implementation; proxies and caches wrap
#: it.  It may raise ``LedgerUnavailableError``.
StatusSource = Callable[[PhotoIdentifier], StatusProof]


class Validator:
    """Validates photos against ledgers under a policy."""

    def __init__(
        self,
        status_source: StatusSource,
        watermark_codec: Optional[WatermarkCodec] = None,
        policy: Optional[ValidationPolicy] = None,
        registry=None,
    ):
        self._status_source = status_source
        self.codec = watermark_codec or WatermarkCodec(payload_len=12)
        self.policy = policy or ValidationPolicy()
        self._registry = registry
        self.validations_performed = 0

    @classmethod
    def for_registry(
        cls,
        registry,
        policy: Optional[ValidationPolicy] = None,
        watermark_codec: Optional[WatermarkCodec] = None,
    ) -> "Validator":
        """Validator querying ledgers directly through a registry."""
        return cls(
            status_source=registry.status,
            watermark_codec=watermark_codec,
            policy=policy,
            registry=registry,
        )

    def validate(self, photo: Photo) -> ValidationResult:
        """Validate one photo for display/save/share."""
        self.validations_performed += 1
        label = read_label(
            photo,
            self.codec,
            registry=self._registry,
            search_offsets=self.policy.check_watermark,
        ) if self.policy.check_watermark else self._metadata_only_label(photo)

        if label.state is LabelState.UNLABELED:
            if self.policy.allow_unlabeled:
                return ValidationResult(
                    ValidationDecision.ALLOW, label, detail="no label present"
                )
            return ValidationResult(
                ValidationDecision.DENY_UNLABELED,
                label,
                detail="unlabeled photos are not accepted under this policy",
            )

        if label.state is LabelState.DISAGREE:
            return ValidationResult(
                ValidationDecision.DENY_LABEL_CONFLICT,
                label,
                detail="metadata and watermark identify different claims",
            )

        if (
            label.state in (LabelState.METADATA_ONLY, LabelState.WATERMARK_ONLY)
            and self.policy.check_watermark
            and not self.policy.allow_partial_label
        ):
            return ValidationResult(
                ValidationDecision.DENY_LABEL_PARTIAL,
                label,
                detail=f"only one label channel present ({label.state.value})",
            )

        identifier = label.identifier
        if identifier is None:
            # WATERMARK_ONLY without a registry to resolve the compact
            # form: treat as partial-label denial under strict policy,
            # unlabeled-allow otherwise.
            if self.policy.allow_partial_label and self.policy.allow_unlabeled:
                return ValidationResult(
                    ValidationDecision.ALLOW,
                    label,
                    detail="watermark present but unresolvable; fail-open",
                )
            return ValidationResult(
                ValidationDecision.DENY_LABEL_PARTIAL,
                label,
                detail="watermark present but no registry to resolve it",
            )

        try:
            proof = self._status_source(identifier)
        except LedgerUnavailableError as exc:
            if self.policy.fail_closed:
                return ValidationResult(
                    ValidationDecision.DENY_LEDGER_UNAVAILABLE,
                    label,
                    identifier=identifier,
                    detail=str(exc),
                )
            return ValidationResult(
                ValidationDecision.ALLOW,
                label,
                identifier=identifier,
                detail=f"ledger unavailable, fail-open: {exc}",
            )

        if proof.revoked:
            return ValidationResult(
                ValidationDecision.DENY_REVOKED,
                label,
                identifier=identifier,
                proof=proof,
                detail="owner has revoked this photo",
            )
        return ValidationResult(
            ValidationDecision.ALLOW,
            label,
            identifier=identifier,
            proof=proof,
            detail="not revoked",
        )

    def _metadata_only_label(self, photo: Photo) -> LabelReadResult:
        """Viewing fast path: read metadata, skip watermark extraction."""
        from repro.core.identifiers import IdentifierError

        raw = photo.metadata.irs_identifier
        metadata_id = None
        if raw is not None:
            try:
                metadata_id = PhotoIdentifier.from_string(raw)
            except IdentifierError:
                metadata_id = None
        state = (
            LabelState.METADATA_ONLY if metadata_id is not None else LabelState.UNLABELED
        )
        return LabelReadResult(
            metadata_identifier=metadata_id,
            watermark_payload=None,
            watermark_identifier=None,
            state=state,
        )
