"""PhotoDNA-style perceptual (robust) hash.

The appeals process (section 3.2) compares an original photo against an
allegedly-derived copy "using robust hashing (as in PhotoDNA)", and
aggregators "keep a database of robust hashes of their current content".
PhotoDNA itself is proprietary; following the public description (Farid
2021, "An Overview of Perceptual Hashing"), we implement the same class
of construction:

1. convert to luminance and normalize brightness/contrast,
2. downsample to a small fixed grid by area averaging,
3. take signs of horizontal and vertical gradients,
4. pack into a fixed-length bit signature, compared by normalized
   Hamming distance.

The normalization step makes the hash invariant to tint, brightness and
contrast edits; the coarse grid gives invariance to compression, noise
and resizing.  Large crops move content between grid cells, so crops
raise the distance -- consistent with PhotoDNA's real behaviour and
with the paper's expectation that heavily cropped copies may need human
inspection in appeals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.media.image import Photo

__all__ = [
    "RobustHash",
    "robust_hash",
    "hash_distance",
    "pack_signatures",
    "hamming_many",
    "DEFAULT_MATCH_THRESHOLD",
]

#: Normalized Hamming distance at or below which two photos are treated
#: as "same image" by appeals and aggregator hash databases.  Calibrated
#: in tests/media/test_perceptual.py: benign edits land well below, and
#: independent photos land near 0.5.
DEFAULT_MATCH_THRESHOLD = 0.25

_GRID = 16  # gradient grid; signature is 2 * 16 * 16 = 512 bits
_SIGNATURE_BITS = 2 * _GRID * _GRID
_SIGNATURE_BYTES = _SIGNATURE_BITS // 8

#: Bits set per byte value — one table lookup replaces unpackbits on
#: the batch path, which matters when an aggregator scans ~10^6 rows.
_POPCOUNT = np.array([bin(value).count("1") for value in range(256)], dtype=np.uint8)


def _area_resize(channel: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Area-averaging resize using integral images (exact box means)."""
    in_h, in_w = channel.shape
    # Integral image with a zero row/column prefix.
    integral = np.zeros((in_h + 1, in_w + 1))
    integral[1:, 1:] = np.cumsum(np.cumsum(channel, axis=0), axis=1)
    y_edges = np.round(np.linspace(0, in_h, out_h + 1)).astype(int)
    x_edges = np.round(np.linspace(0, in_w, out_w + 1)).astype(int)
    # Guard against zero-area cells on tiny inputs.
    y_edges = np.maximum.accumulate(np.maximum(y_edges, np.arange(out_h + 1) > 0))
    x_edges = np.maximum.accumulate(np.maximum(x_edges, np.arange(out_w + 1) > 0))
    out = np.empty((out_h, out_w))
    for i in range(out_h):
        y0, y1 = y_edges[i], max(y_edges[i + 1], y_edges[i] + 1)
        y1 = min(y1, in_h)
        y0 = min(y0, y1 - 1)
        for j in range(out_w):
            x0, x1 = x_edges[j], max(x_edges[j + 1], x_edges[j] + 1)
            x1 = min(x1, in_w)
            x0 = min(x0, x1 - 1)
            area = (y1 - y0) * (x1 - x0)
            total = (
                integral[y1, x1]
                - integral[y0, x1]
                - integral[y1, x0]
                + integral[y0, x0]
            )
            out[i, j] = total / area
    return out


@dataclass(frozen=True)
class RobustHash:
    """A 512-bit perceptual signature."""

    bits: bytes  # 64 bytes, packed

    def __post_init__(self) -> None:
        if len(self.bits) != 2 * _GRID * _GRID // 8:
            raise ValueError("robust hash must be 512 bits")

    def distance(self, other: "RobustHash") -> float:
        """Normalized Hamming distance in [0, 1].

        This unpackbits form is the reference oracle for the batch path
        (:func:`hamming_many`); the differential suite keeps the two in
        lockstep.
        """
        a = np.unpackbits(np.frombuffer(self.bits, dtype=np.uint8))
        b = np.unpackbits(np.frombuffer(other.bits, dtype=np.uint8))
        return float(np.mean(a != b))

    def matches(
        self, other: "RobustHash", threshold: float = DEFAULT_MATCH_THRESHOLD
    ) -> bool:
        return self.distance(other) <= threshold

    def hex(self) -> str:
        return self.bits.hex()

    def __hash__(self) -> int:
        return hash(self.bits)


def robust_hash(photo: Photo) -> RobustHash:
    """Compute the perceptual signature of a photo."""
    luma = photo.luminance()
    # Brightness/contrast normalization: zero mean, unit variance.
    std = float(luma.std())
    if std < 1e-9:
        normalized = np.zeros_like(luma)
    else:
        normalized = (luma - luma.mean()) / std
    # One extra row/column so the gradient grid is exactly GRID x GRID.
    small_h = _area_resize(normalized, _GRID, _GRID + 1)
    small_v = _area_resize(normalized, _GRID + 1, _GRID)
    grad_h = (np.diff(small_h, axis=1) > 0).astype(np.uint8)  # 16x16
    grad_v = (np.diff(small_v, axis=0) > 0).astype(np.uint8)  # 16x16
    packed = np.packbits(np.concatenate([grad_h.ravel(), grad_v.ravel()]))
    return RobustHash(bits=packed.tobytes())


def hash_distance(a: Photo, b: Photo) -> float:
    """Normalized Hamming distance between two photos' signatures."""
    return robust_hash(a).distance(robust_hash(b))


def pack_signatures(hashes: Sequence[RobustHash]) -> np.ndarray:
    """Stack signatures into a ``(n, 64)`` uint8 matrix for batch matching.

    The matrix form is what aggregator hash databases hold; build it
    once, then run :func:`hamming_many` per query.
    """
    if not hashes:
        return np.zeros((0, _SIGNATURE_BYTES), dtype=np.uint8)
    blob = b"".join(h.bits for h in hashes)
    return np.frombuffer(blob, dtype=np.uint8).reshape(len(hashes), _SIGNATURE_BYTES)


def hamming_many(query: RobustHash, packed: np.ndarray) -> np.ndarray:
    """Normalized Hamming distances from ``query`` to every packed row.

    Entry ``i`` equals ``query.distance(row_i)`` exactly (the scalar
    method is the oracle), computed as one XOR plus a popcount table
    lookup instead of per-pair unpackbits.
    """
    if packed.ndim != 2 or packed.shape[1] != _SIGNATURE_BYTES:
        raise ValueError(
            f"packed signature matrix must be (n, {_SIGNATURE_BYTES}), "
            f"got {packed.shape}"
        )
    if packed.shape[0] == 0:
        return np.zeros(0)
    q = np.frombuffer(query.bits, dtype=np.uint8)
    xored = np.bitwise_xor(packed, q[None, :])
    return _POPCOUNT[xored].sum(axis=1, dtype=np.int64) / float(_SIGNATURE_BITS)
