"""Personal video support.

Section 2: "while our treatment focuses on preventing the unwanted
sharing of photos, our approach applies more generally to other digital
media (such as personal videos) that are discrete, have a clearly
identified owner, and are intensely personal."

A :class:`Video` is a frame sequence sharing one metadata container.
The labeling strategy extends the photo design naturally:

* the identifier is embedded as a watermark in **every frame**, so
  clipping a video (dropping frames) cannot shed the label;
* extraction takes a **majority vote across frames**, so per-frame
  damage (heavy compression of high-motion frames, captions burned
  into a scene) is tolerated as long as most frames decode;
* the content hash covers all frames, and the robust signature is the
  set of per-frame perceptual hashes compared with a coverage metric
  (what fraction of one video's frames match frames of the other),
  which also catches clipped copies in appeals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.media.image import Photo, PhotoGenerator
from repro.media.metadata import MetadataContainer
from repro.media.perceptual import RobustHash, robust_hash
from repro.media.watermark import WatermarkCodec, WatermarkError

__all__ = ["Video", "VideoWatermarkCodec", "video_match_coverage", "generate_video"]


@dataclass
class Video:
    """A short personal video: frames + shared metadata."""

    frames: List[Photo]
    metadata: MetadataContainer = field(default_factory=MetadataContainer)
    fps: float = 24.0

    def __post_init__(self) -> None:
        if not self.frames:
            raise ValueError("a video needs at least one frame")
        shape = self.frames[0].shape
        if any(frame.shape != shape for frame in self.frames):
            raise ValueError("all frames must share one resolution")
        if self.fps <= 0:
            raise ValueError("fps must be positive")

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def duration(self) -> float:
        return self.num_frames / self.fps

    def content_hash(self) -> str:
        """Exact hash over all frame pixels, in order."""
        import hashlib

        hasher = hashlib.sha256()
        for frame in self.frames:
            hasher.update(frame.content_hash().encode("ascii"))
        return hasher.hexdigest()

    def clip(self, start: int, end: int) -> "Video":
        """Frames [start, end) as a new video (metadata carried)."""
        if not 0 <= start < end <= self.num_frames:
            raise ValueError("invalid clip range")
        return Video(
            frames=[f.copy() for f in self.frames[start:end]],
            metadata=self.metadata.copy(),
            fps=self.fps,
        )

    def frame_signatures(self) -> List[RobustHash]:
        return [robust_hash(frame) for frame in self.frames]

    def copy(self, with_metadata: bool = True) -> "Video":
        return Video(
            frames=[f.copy(with_metadata=False) for f in self.frames],
            metadata=self.metadata.copy() if with_metadata else MetadataContainer(),
            fps=self.fps,
        )


class VideoWatermarkCodec:
    """Per-frame watermarking with cross-frame majority decoding."""

    def __init__(self, frame_codec: Optional[WatermarkCodec] = None):
        self.frame_codec = frame_codec or WatermarkCodec(payload_len=12)

    @property
    def payload_len(self) -> int:
        return self.frame_codec.payload_len

    def embed(self, video: Video, payload: bytes) -> Video:
        """Watermark every frame; metadata is preserved."""
        frames = [self.frame_codec.embed(frame, payload) for frame in video.frames]
        return Video(frames=frames, metadata=video.metadata.copy(), fps=video.fps)

    def extract(
        self,
        video: Video,
        min_agreeing_frames: int = 1,
        search_offsets: bool = True,
    ) -> bytes:
        """Majority payload across frames.

        Frames that fail to decode simply don't vote.  Raises
        :class:`WatermarkError` when fewer than ``min_agreeing_frames``
        frames agree on the winning payload.
        """
        votes: Counter = Counter()
        for frame in video.frames:
            try:
                result = self.frame_codec.extract(
                    frame, search_offsets=search_offsets
                )
            except WatermarkError:
                continue
            votes[result.payload] += 1
        if not votes:
            raise WatermarkError("no frame carried a decodable watermark")
        payload, count = votes.most_common(1)[0]
        if count < min_agreeing_frames:
            raise WatermarkError(
                f"only {count} frames agree on a payload "
                f"(required {min_agreeing_frames})"
            )
        return payload

    def has_watermark(self, video: Video, **kwargs) -> bool:
        try:
            self.extract(video, **kwargs)
            return True
        except WatermarkError:
            return False


def video_match_coverage(original: Video, candidate: Video, threshold: float = 0.25) -> float:
    """Fraction of candidate frames perceptually matching some original frame.

    The appeals-process metric for video: a clipped or recompressed
    copy scores near 1.0; unrelated footage scores near 0.0.
    """
    original_signatures = original.frame_signatures()
    matched = 0
    for frame in candidate.frames:
        signature = robust_hash(frame)
        if any(signature.distance(o) <= threshold for o in original_signatures):
            matched += 1
    return matched / candidate.num_frames


def generate_video(
    seed: int = 0,
    num_frames: int = 8,
    height: int = 128,
    width: int = 128,
    motion: float = 2.0,
) -> Video:
    """Synthetic video: one generated scene with per-frame drift.

    Frames share composition (like consecutive video frames do) with
    smooth translation and brightness flicker, so temporal coherence is
    realistic for watermark/hash experiments.
    """
    if num_frames < 1:
        raise ValueError("need at least one frame")
    rng = np.random.default_rng(seed)
    base = PhotoGenerator(rng).generate(height=height, width=width)
    frames = []
    for i in range(num_frames):
        dy = int(round(motion * i * rng.uniform(0.5, 1.0)))
        dx = int(round(motion * i * rng.uniform(0.5, 1.0)))
        pixels = np.roll(base.pixels, shift=(dy % height, dx % width), axis=(0, 1))
        flicker = 1.0 + 0.02 * np.sin(i * 0.9)
        frames.append(Photo(pixels=np.clip(pixels * flicker, 0.0, 1.0)))
    return Video(frames=frames)
