"""Tests for the DCT codec and the transform library."""

import numpy as np
import pytest

from repro.media.image import generate_photo
from repro.media.jpeg import JpegCodec, jpeg_roundtrip
from repro.media.transforms import (
    add_noise,
    adjust_brightness,
    adjust_contrast,
    crop,
    crop_fraction,
    flip_horizontal,
    overlay_caption,
    resize,
    tint,
)


class TestJpegCodec:
    def test_high_quality_near_lossless(self, base_photo):
        out = jpeg_roundtrip(base_photo, quality=95)
        assert out.psnr_against(base_photo) > 33.0

    def test_quality_ordering(self, base_photo):
        q90 = jpeg_roundtrip(base_photo, 90).psnr_against(base_photo)
        q50 = jpeg_roundtrip(base_photo, 50).psnr_against(base_photo)
        q10 = jpeg_roundtrip(base_photo, 10).psnr_against(base_photo)
        assert q90 > q50 > q10

    def test_shape_preserved_non_multiple_of_8(self):
        photo = generate_photo(seed=3, height=70, width=93)
        out = jpeg_roundtrip(photo, 75)
        assert out.shape == (70, 93)

    def test_metadata_preserved_by_default(self, base_photo):
        tagged = base_photo.copy()
        tagged.metadata.set("irs:identifier", "irs1:l:1")
        out = jpeg_roundtrip(tagged, 75)
        assert out.metadata.irs_identifier == "irs1:l:1"

    def test_metadata_strip_option(self, base_photo):
        tagged = base_photo.copy()
        tagged.metadata.set("irs:identifier", "irs1:l:1")
        out = jpeg_roundtrip(tagged, 75, preserve_metadata=False)
        assert len(out.metadata) == 0

    def test_invalid_quality(self):
        with pytest.raises(ValueError):
            JpegCodec(quality=0)
        with pytest.raises(ValueError):
            JpegCodec(quality=101)

    def test_idempotent_ish(self, base_photo):
        """Recompressing an already-compressed photo changes little."""
        once = jpeg_roundtrip(base_photo, 60)
        twice = jpeg_roundtrip(once, 60)
        assert twice.psnr_against(once) > 34.0

    def test_chroma_subsampling_degrades_colour_not_luma(self, base_photo):
        full = JpegCodec(75).roundtrip(base_photo)
        subsampled = JpegCodec(75, chroma_subsampling=True).roundtrip(base_photo)
        # Subsampling costs overall fidelity...
        assert subsampled.psnr_against(base_photo) <= full.psnr_against(
            base_photo
        )
        # ...but luminance is nearly untouched.
        luma_err_full = float(
            np.abs(full.luminance() - base_photo.luminance()).mean()
        )
        luma_err_sub = float(
            np.abs(subsampled.luminance() - base_photo.luminance()).mean()
        )
        assert luma_err_sub < luma_err_full * 1.6

    def test_watermark_survives_chroma_subsampling(self, base_photo):
        """The watermark lives in luma, so 4:2:0 cannot kill it."""
        from repro.media.watermark import WatermarkCodec

        wm_codec = WatermarkCodec(payload_len=12)
        marked = wm_codec.embed(base_photo, bytes(range(12)))
        degraded = JpegCodec(60, chroma_subsampling=True).roundtrip(marked)
        result = wm_codec.extract(degraded, search_offsets=False)
        assert result.payload == bytes(range(12))

    def test_subsampling_odd_dimensions(self):
        photo = generate_photo(seed=8, height=65, width=67)
        out = JpegCodec(75, chroma_subsampling=True).roundtrip(photo)
        assert out.shape == (65, 67)


class TestTransforms:
    def test_crop_bounds(self, base_photo):
        out = crop(base_photo, 10, 20, 50, 60)
        assert out.shape == (50, 60)
        assert np.array_equal(out.pixels, base_photo.pixels[10:60, 20:80])

    def test_crop_validation(self, base_photo):
        with pytest.raises(ValueError):
            crop(base_photo, 100, 100, 50, 50)
        with pytest.raises(ValueError):
            crop(base_photo, -1, 0, 10, 10)

    def test_crop_fraction_centered(self, base_photo):
        out = crop_fraction(base_photo, 0.5)
        assert out.shape == (64, 64)

    def test_resize_shape_exact(self, base_photo):
        for h, w in [(100, 100), (37, 91), (200, 150)]:
            assert resize(base_photo, h, w).shape == (h, w)

    def test_tint_channel_scaling(self, base_photo):
        out = tint(base_photo, (0.5, 1.0, 1.0))
        ratio = out.pixels[..., 0].mean() / base_photo.pixels[..., 0].mean()
        assert ratio == pytest.approx(0.5, abs=0.05)
        assert np.allclose(out.pixels[..., 1], base_photo.pixels[..., 1])

    def test_brightness_shift(self, base_photo):
        out = adjust_brightness(base_photo, 0.1)
        assert out.pixels.mean() > base_photo.pixels.mean()

    def test_contrast_extremes(self, base_photo):
        flat = adjust_contrast(base_photo, 0.0)
        assert np.allclose(flat.pixels, 0.5)

    def test_noise_seeded(self, base_photo):
        a = add_noise(base_photo, 0.05, np.random.default_rng(1))
        b = add_noise(base_photo, 0.05, np.random.default_rng(1))
        assert np.array_equal(a.pixels, b.pixels)

    def test_flip_involution(self, base_photo):
        assert np.array_equal(
            flip_horizontal(flip_horizontal(base_photo)).pixels, base_photo.pixels
        )

    def test_caption_band_painted(self, base_photo):
        out = overlay_caption(base_photo, band_fraction=0.2, colour=(1, 1, 1))
        band = out.pixels[-25:, :, :]
        assert np.allclose(band, 1.0)

    def test_metadata_carried_by_default(self, base_photo):
        tagged = base_photo.copy()
        tagged.metadata.set("irs:identifier", "irs1:l:9")
        for transform in (
            lambda p: crop(p, 0, 0, 64, 64),
            lambda p: resize(p, 64, 64),
            lambda p: tint(p, (1.1, 1.0, 0.9)),
            flip_horizontal,
        ):
            assert transform(tagged).metadata.irs_identifier == "irs1:l:9"

    def test_metadata_strip_option(self, base_photo):
        tagged = base_photo.copy()
        tagged.metadata.set("irs:identifier", "irs1:l:9")
        out = crop(tagged, 0, 0, 64, 64, preserve_metadata=False)
        assert len(out.metadata) == 0

    def test_parameter_validation(self, base_photo):
        with pytest.raises(ValueError):
            tint(base_photo, (-1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            adjust_brightness(base_photo, 2.0)
        with pytest.raises(ValueError):
            adjust_contrast(base_photo, -0.5)
        with pytest.raises(ValueError):
            add_noise(base_photo, -0.1)
        with pytest.raises(ValueError):
            overlay_caption(base_photo, band_fraction=1.5)
        with pytest.raises(ValueError):
            resize(base_photo, 0, 10)
        with pytest.raises(ValueError):
            crop_fraction(base_photo, 0.0)
