"""Photo-heavy page generation (section 4.3's pinterest case study).

Page shapes follow Web-Almanac-era medians: HTML around 30 KB, a few
hundred KB of CSS/JS, images lognormally distributed around ~70 KB.  A
"pinterest-like" page is an image grid: many medium-sized images and
modest blocking resources, which is the workload where revocation
checks could plausibly hurt and where pipelining hides them.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.browser.page import AuxResource, ImageResource, Page
from repro.core.identifiers import PhotoIdentifier

__all__ = ["pinterest_like_page"]


def _image_sizes(
    rng: np.random.Generator, count: int, median_bytes: float, sigma: float
) -> np.ndarray:
    sizes = rng.lognormal(np.log(median_bytes), sigma, size=count)
    return np.clip(sizes, 5_000, 2_000_000).astype(int)


def _label_images(
    images: List[ImageResource],
    rng: np.random.Generator,
    labeled_fraction: float,
    identifiers: Optional[List[PhotoIdentifier]],
) -> None:
    """Mark a fraction of images as IRS-labeled.

    When ``identifiers`` is given, labels are drawn from it (so checks
    hit real ledger records); otherwise placeholder identifiers are
    minted on a synthetic ledger id.
    """
    for i, image in enumerate(images):
        if rng.uniform() >= labeled_fraction:
            continue
        if identifiers:
            image.identifier = identifiers[int(rng.integers(len(identifiers)))]
        else:
            image.identifier = PhotoIdentifier(
                ledger_id="synthetic-ledger", serial=i + 1
            )


def pinterest_like_page(
    rng: np.random.Generator,
    num_images: int = 60,
    labeled_fraction: float = 1.0,
    identifiers: Optional[List[PhotoIdentifier]] = None,
    name: str = "pinterest-like",
) -> Page:
    """An image-grid page: the paper's photo-heavy worst case.

    Defaults label *every* image so latency experiments measure the
    worst case ("a revocation check before displaying every labeled
    photo").
    """
    if num_images < 1:
        raise ValueError("need at least one image")
    # Pinterest-style grid/closeup images: ~150 KB median.
    sizes = _image_sizes(rng, num_images, median_bytes=150_000, sigma=0.5)
    images = [
        ImageResource(name=f"img-{i}", size_bytes=int(size))
        for i, size in enumerate(sizes)
    ]
    _label_images(images, rng, labeled_fraction, identifiers)
    aux = [
        AuxResource(name="app.css", size_bytes=90_000, kind="css"),
        AuxResource(name="vendor.js", size_bytes=350_000, kind="js"),
        AuxResource(name="app.js", size_bytes=180_000, kind="js"),
    ]
    return Page(name=name, html_bytes=45_000, aux=aux, images=images)
