"""The content aggregator: hosting, serving, takedowns.

An IRS-supporting aggregator (section 3.2):

* accepts uploads through the :class:`~repro.aggregator.uploads.UploadPipeline`;
* preserves IRS metadata on hosted photos (stripping only non-IRS EXIF);
* attaches a signed freshness proof to every served photo ("it includes
  in metadata cryptographic proof that it has recently verified the
  non-revoked status of the photo");
* takes revoked photos down when the periodic recheck finds them.

A *non-supporting* aggregator -- today's behaviour, the bootstrap
phase's counterfactual -- is the same class with
``AggregatorConfig.legacy()``: strips all metadata, never checks,
serves everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.identifiers import PhotoIdentifier
from repro.ledger.proofs import StatusProof
from repro.ledger.registry import LedgerRegistry
from repro.media.image import Photo
from repro.media.metadata import IRS_FRESHNESS_FIELD

__all__ = ["ContentAggregator", "AggregatorConfig", "HostedPhoto", "ServeResult"]


@dataclass
class AggregatorConfig:
    """Aggregator policy.

    Attributes
    ----------
    supports_irs:
        Master switch: False models today's aggregators.
    custodial_claims:
        Claim unlabeled uploads in a custodial role (vs rejecting them).
    check_hash_database:
        Compare uploads against hosted content's robust hashes and
        force derivative uploads to carry the original's label.
    recheck_interval:
        Seconds between revocation rechecks of hosted content.
    preserve_irs_metadata:
        Keep ``irs:`` fields when stripping EXIF on upload.
    """

    supports_irs: bool = True
    custodial_claims: bool = True
    check_hash_database: bool = True
    recheck_interval: float = 3600.0
    preserve_irs_metadata: bool = True

    @classmethod
    def legacy(cls) -> "AggregatorConfig":
        """Today's aggregator: no IRS anywhere."""
        return cls(
            supports_irs=False,
            custodial_claims=False,
            check_hash_database=False,
            preserve_irs_metadata=False,
        )


@dataclass
class HostedPhoto:
    """One photo as hosted by the aggregator."""

    name: str
    photo: Photo
    identifier: Optional[PhotoIdentifier]
    uploaded_at: float
    last_proof: Optional[StatusProof] = None
    taken_down: bool = False
    takedown_reason: str = ""


@dataclass(frozen=True)
class ServeResult:
    """Outcome of a serve request."""

    served: bool
    photo: Optional[Photo] = None
    reason: str = ""


class ContentAggregator:
    """One content-hosting site."""

    def __init__(
        self,
        name: str,
        registry: LedgerRegistry,
        config: Optional[AggregatorConfig] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.name = name
        self.registry = registry
        self.config = config or AggregatorConfig()
        self._clock = clock or (lambda: 0.0)
        self._hosted: Dict[str, HostedPhoto] = {}
        self.serves = 0
        self.serves_denied = 0

    def now(self) -> float:
        return self._clock()

    # -- hosting ------------------------------------------------------------------

    def host(
        self,
        name: str,
        photo: Photo,
        identifier: Optional[PhotoIdentifier],
        proof: Optional[StatusProof] = None,
    ) -> HostedPhoto:
        """Store an accepted upload (called by the upload pipeline)."""
        if name in self._hosted:
            raise KeyError(f"photo name {name!r} already hosted")
        stored = photo.copy()
        stored.metadata = photo.metadata.stripped(
            preserve_irs=self.config.preserve_irs_metadata
        )
        if self.config.preserve_irs_metadata and identifier is not None:
            stored.metadata.irs_identifier = identifier.to_string()
        hosted = HostedPhoto(
            name=name,
            photo=stored,
            identifier=identifier,
            uploaded_at=self.now(),
            last_proof=proof,
        )
        self._hosted[name] = hosted
        return hosted

    def hosted(self, name: str) -> Optional[HostedPhoto]:
        return self._hosted.get(name)

    def hosted_photos(self) -> List[HostedPhoto]:
        return [self._hosted[name] for name in sorted(self._hosted)]

    def live_photos(self) -> List[HostedPhoto]:
        return [h for h in self.hosted_photos() if not h.taken_down]

    def __len__(self) -> int:
        return len(self._hosted)

    # -- serving -------------------------------------------------------------------

    def serve(self, name: str) -> ServeResult:
        """Serve a hosted photo to a viewer.

        IRS-supporting aggregators attach the latest freshness proof in
        the served photo's metadata.
        """
        hosted = self._hosted.get(name)
        if hosted is None:
            return ServeResult(served=False, reason="not found")
        if hosted.taken_down:
            self.serves_denied += 1
            return ServeResult(
                served=False, reason=f"taken down: {hosted.takedown_reason}"
            )
        self.serves += 1
        served = hosted.photo.copy()
        if self.config.supports_irs and hosted.last_proof is not None:
            # Section 3.2: "it includes in metadata cryptographic proof
            # that it has recently verified the non-revoked status".
            served.metadata.set(IRS_FRESHNESS_FIELD, hosted.last_proof.to_wire())
        return ServeResult(served=True, photo=served, reason="ok")

    # -- takedowns -------------------------------------------------------------------

    def take_down(self, name: str, reason: str) -> None:
        hosted = self._hosted.get(name)
        if hosted is None:
            raise KeyError(f"no hosted photo {name!r}")
        hosted.taken_down = True
        hosted.takedown_reason = reason

    def counts(self) -> Dict[str, int]:
        hosted = list(self._hosted.values())
        return {
            "hosted": len(hosted),
            "live": sum(1 for h in hosted if not h.taken_down),
            "taken_down": sum(1 for h in hosted if h.taken_down),
            "labeled": sum(1 for h in hosted if h.identifier is not None),
        }
