"""Simplified JPEG-style codec: block DCT + quantization round trip.

Stands in for the transcoding that content aggregators apply on upload
(the paper's Goal #5: revocation must survive compression).  The codec
implements the lossy core of JPEG -- YCbCr conversion, 8x8 block DCT,
quality-scaled quantization tables, dequantization, inverse DCT -- and
skips the lossless entropy-coding stage, which does not affect pixels.

Watermark robustness against this codec therefore predicts robustness
against real JPEG at the same quality factor.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as spfft

from repro.media.image import Photo

__all__ = ["JpegCodec", "jpeg_roundtrip"]

# Standard Annex-K luminance quantization table.
_LUMA_TABLE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)

# Standard chroma quantization table.
_CHROMA_TABLE = np.array(
    [
        [17, 18, 24, 47, 99, 99, 99, 99],
        [18, 21, 26, 66, 99, 99, 99, 99],
        [24, 26, 56, 99, 99, 99, 99, 99],
        [47, 66, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
    ],
    dtype=np.float64,
)

_BLOCK = 8


def _quality_scale(quality: int) -> float:
    """IJG quality-to-scale mapping."""
    quality = max(1, min(100, int(quality)))
    if quality < 50:
        return 5000.0 / quality / 100.0
    return (200.0 - 2.0 * quality) / 100.0


def _scaled_table(base: np.ndarray, quality: int) -> np.ndarray:
    scaled = np.floor(base * _quality_scale(quality) + 0.5)
    return np.clip(scaled, 1.0, 255.0)


def _rgb_to_ycbcr(pixels: np.ndarray) -> np.ndarray:
    """RGB [0,1] -> YCbCr [0,255] (BT.601 full range)."""
    r, g, b = pixels[..., 0] * 255, pixels[..., 1] * 255, pixels[..., 2] * 255
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    return np.stack([y, cb, cr], axis=-1)


def _ycbcr_to_rgb(ycbcr: np.ndarray) -> np.ndarray:
    y, cb, cr = ycbcr[..., 0], ycbcr[..., 1] - 128.0, ycbcr[..., 2] - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return np.clip(np.stack([r, g, b], axis=-1) / 255.0, 0.0, 1.0)


def _pad_to_blocks(channel: np.ndarray) -> tuple[np.ndarray, int, int]:
    height, width = channel.shape
    pad_h = (-height) % _BLOCK
    pad_w = (-width) % _BLOCK
    padded = np.pad(channel, ((0, pad_h), (0, pad_w)), mode="edge")
    return padded, height, width


def _blockwise_dct(channel: np.ndarray) -> np.ndarray:
    """2D type-II DCT on each 8x8 block (orthonormal)."""
    h, w = channel.shape
    blocks = channel.reshape(h // _BLOCK, _BLOCK, w // _BLOCK, _BLOCK)
    blocks = blocks.transpose(0, 2, 1, 3)
    coeffs = spfft.dctn(blocks, axes=(2, 3), norm="ortho")
    return coeffs  # shape (h/8, w/8, 8, 8)


def _blockwise_idct(coeffs: np.ndarray, height: int, width: int) -> np.ndarray:
    blocks = spfft.idctn(coeffs, axes=(2, 3), norm="ortho")
    h_blocks, w_blocks = blocks.shape[:2]
    channel = blocks.transpose(0, 2, 1, 3).reshape(
        h_blocks * _BLOCK, w_blocks * _BLOCK
    )
    return channel[:height, :width]


class JpegCodec:
    """Round-trips photos through quality-scaled DCT quantization.

    Parameters
    ----------
    quality:
        JPEG-style quality factor, 1 (worst) to 100 (near-lossless).
    chroma_subsampling:
        Apply 4:2:0 chroma subsampling (halve Cb/Cr resolution before
        quantization), as virtually all web JPEGs do.  Affects colour
        detail only; the luma-carried watermark is untouched by it.
    """

    def __init__(self, quality: int = 75, chroma_subsampling: bool = False):
        if not 1 <= quality <= 100:
            raise ValueError("quality must be in [1, 100]")
        self.quality = int(quality)
        self.chroma_subsampling = bool(chroma_subsampling)
        self._luma_q = _scaled_table(_LUMA_TABLE, quality)
        self._chroma_q = _scaled_table(_CHROMA_TABLE, quality)

    @staticmethod
    def _subsample(channel: np.ndarray) -> np.ndarray:
        """2x2 box average (4:2:0 downsample)."""
        h, w = channel.shape
        trimmed = channel[: h - h % 2, : w - w % 2]
        return trimmed.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))

    @staticmethod
    def _upsample(channel: np.ndarray, height: int, width: int) -> np.ndarray:
        """Nearest-neighbour 2x upsample back to (height, width)."""
        up = np.repeat(np.repeat(channel, 2, axis=0), 2, axis=1)
        out = np.empty((height, width))
        out[: up.shape[0], : up.shape[1]] = up[:height, :width]
        # Odd trailing row/column: replicate the last available line.
        if up.shape[0] < height:
            out[up.shape[0] :, : up.shape[1]] = up[-1:, :width]
        if up.shape[1] < width:
            out[:, up.shape[1] :] = out[:, up.shape[1] - 1 : up.shape[1]]
        return out

    def _code_channel(self, channel: np.ndarray, table: np.ndarray) -> np.ndarray:
        padded, height, width = _pad_to_blocks(channel)
        coeffs = _blockwise_dct(padded - 128.0)
        restored = np.round(coeffs / table) * table
        return _blockwise_idct(restored, height, width) + 128.0

    def roundtrip(self, photo: Photo, preserve_metadata: bool = True) -> Photo:
        """Compress and decompress, returning the degraded photo.

        ``preserve_metadata=False`` also strips metadata, modelling a
        non-IRS-aware transcode pipeline.
        """
        ycbcr = _rgb_to_ycbcr(photo.pixels)
        out = np.empty_like(ycbcr)
        height, width = ycbcr.shape[:2]
        out[..., 0] = self._code_channel(ycbcr[..., 0], self._luma_q)
        for c in (1, 2):
            channel = ycbcr[..., c]
            if self.chroma_subsampling and height >= 2 and width >= 2:
                small = self._subsample(channel)
                coded = self._code_channel(small, self._chroma_q)
                out[..., c] = self._upsample(coded, height, width)
            else:
                out[..., c] = self._code_channel(channel, self._chroma_q)
        pixels = _ycbcr_to_rgb(out)
        metadata = photo.metadata.copy() if preserve_metadata else None
        result = Photo(pixels=pixels)
        if metadata is not None:
            result.metadata = metadata
        return result


def jpeg_roundtrip(
    photo: Photo, quality: int = 75, preserve_metadata: bool = True
) -> Photo:
    """One-shot compress/decompress at the given quality."""
    return JpegCodec(quality=quality).roundtrip(
        photo, preserve_metadata=preserve_metadata
    )
