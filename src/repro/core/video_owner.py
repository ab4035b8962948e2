"""Owner-side operations for personal videos.

Section 2 extends the IRS design to "other digital media (such as
personal videos)".  :class:`VideoOwnerToolkit` mirrors
:class:`repro.core.owner.OwnerToolkit` for :class:`repro.media.video.Video`:

* **claim, revoke/unrevoke** — :class:`~repro.core.owner.MediaOwner`'s:
  the hash covers all frames, and the ledger does not care what it covers;
* **label** — metadata on the container plus the identifier
  watermarked into every frame (clip-resistant);
* **appeals** — the copy-vs-original comparison uses per-frame robust
  hashes with a coverage threshold
  (:func:`repro.media.video.video_match_coverage`), so clipped and
  recompressed copies are still recognized as derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.errors import ClaimError
from repro.core.identifiers import IdentifierError, PhotoIdentifier
from repro.core.owner import ClaimReceipt, MediaOwner
from repro.ledger.ledger import Ledger
from repro.media.video import Video, VideoWatermarkCodec, video_match_coverage

__all__ = ["VideoOwnerToolkit", "VideoAppealJudgement", "judge_video_appeal"]


class VideoOwnerToolkit(MediaOwner):
    """Camera-side video operations."""

    def __init__(
        self,
        rng: Optional[np.random.Generator] = None,
        key_bits: int = 512,
        video_codec: Optional[VideoWatermarkCodec] = None,
    ):
        super().__init__(rng, key_bits)
        self.video_codec = video_codec or VideoWatermarkCodec()

    def label(self, video: Video, receipt: ClaimReceipt) -> Video:
        """Metadata + per-frame watermark carrying the identifier."""
        compact = receipt.identifier.to_compact()
        if len(compact) != self.video_codec.payload_len:
            raise ClaimError(
                "video codec payload length does not match identifier encoding"
            )
        labeled = self.video_codec.embed(video, compact)
        labeled.metadata.irs_identifier = receipt.identifier.to_string()
        return labeled

    def identify(self, video: Video, registry=None) -> Optional[PhotoIdentifier]:
        """Recover a video's identifier from metadata or watermark."""
        raw = video.metadata.irs_identifier
        if raw is not None:
            try:
                return PhotoIdentifier.from_string(raw)
            except IdentifierError:  # malformed => try watermark
                pass
        try:
            payload = self.video_codec.extract(video)
        except Exception:  # noqa: BLE001 - no watermark
            return None
        if registry is None:
            return None
        try:
            return registry.resolve_compact(payload)
        except Exception:  # noqa: BLE001 - unknown tag
            return None


@dataclass(frozen=True)
class VideoAppealJudgement:
    """Outcome of the video derivation check used in appeals."""

    derived: bool
    coverage: float
    threshold: float


def judge_video_appeal(
    original: Video,
    copy: Video,
    coverage_threshold: float = 0.6,
    frame_threshold: float = 0.25,
) -> VideoAppealJudgement:
    """Is ``copy`` derived from ``original``?

    ``coverage`` is the fraction of the copy's frames perceptually
    matching some original frame; a clipped/recompressed copy scores
    near 1.0, unrelated footage near 0.0.  The 0.6 default tolerates
    copies that interleave derived and novel material.
    """
    coverage = video_match_coverage(original, copy, threshold=frame_threshold)
    return VideoAppealJudgement(
        derived=coverage >= coverage_threshold,
        coverage=coverage,
        threshold=coverage_threshold,
    )
