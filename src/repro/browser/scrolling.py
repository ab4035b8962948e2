"""Scroll-session model: does IRS validation cause visible jank?

Section 4.3's prototype evidence is about *scrolling*: "we did not
notice additional delay when scrolling through a variety of web sites
containing claimed images."  The page-load model answers the initial-
render question; this model answers the scrolling one.

An infinite-feed page lays images out in rows.  The viewport moves down
at a constant scroll speed; the browser prefetches images a margin
ahead of the viewport (as real lazy-loading browsers do) over a
connection pool, and IRS checks are issued at metadata arrival.  An
image *janks* if it is not ready (downloaded + validated) when its row
enters the viewport.

Outputs: jank rate and jank durations, with and without IRS, as a
function of scroll speed and check latency.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.netsim.latency import LatencyModel

__all__ = ["ScrollFeed", "ScrollSession", "ScrollResult"]


@dataclass
class ScrollFeed:
    """An infinite-scroll feed of images.

    Attributes
    ----------
    image_sizes:
        Transfer size per image, in feed order.
    labeled:
        Per-image flag: does it carry an IRS label (=> needs a check)?
    images_per_row / row_height_px:
        Grid geometry.
    metadata_prefix_bytes:
        Bytes into each transfer where IRS metadata is readable.
    """

    image_sizes: List[int]
    labeled: List[bool]
    images_per_row: int = 3
    row_height_px: float = 300.0
    metadata_prefix_bytes: int = 2048

    def __post_init__(self) -> None:
        if len(self.image_sizes) != len(self.labeled):
            raise ValueError("image_sizes and labeled must align")
        if self.images_per_row < 1 or self.row_height_px <= 0:
            raise ValueError("invalid grid geometry")

    @property
    def num_images(self) -> int:
        return len(self.image_sizes)

    def row_of(self, index: int) -> int:
        return index // self.images_per_row

    @classmethod
    def generate(
        cls,
        rng: np.random.Generator,
        num_images: int = 300,
        labeled_fraction: float = 1.0,
        median_bytes: float = 150_000,
    ) -> "ScrollFeed":
        sizes = np.clip(
            rng.lognormal(np.log(median_bytes), 0.5, size=num_images),
            5_000,
            2_000_000,
        ).astype(int)
        labeled = (rng.uniform(size=num_images) < labeled_fraction).tolist()
        return cls(image_sizes=sizes.tolist(), labeled=labeled)


@dataclass
class ScrollResult:
    """Per-session jank metrics."""

    visible_times: List[float] = field(default_factory=list)
    ready_times: List[float] = field(default_factory=list)
    checks_issued: int = 0

    @property
    def jank_durations(self) -> np.ndarray:
        visible = np.asarray(self.visible_times)
        ready = np.asarray(self.ready_times)
        return np.maximum(0.0, ready - visible)

    @property
    def jank_rate(self) -> float:
        """Fraction of images not ready when they entered the viewport.

        Sub-10ms lateness is counted as ready: it is within one frame.
        """
        jank = self.jank_durations
        return float((jank > 0.010).mean()) if jank.size else 0.0

    @property
    def mean_jank_ms(self) -> float:
        jank = self.jank_durations
        return float(jank.mean() * 1000) if jank.size else 0.0


class ScrollSession:
    """Simulates one user scrolling a feed.

    Parameters
    ----------
    scroll_speed_px_s:
        Viewport speed; ~800 px/s is brisk continuous scrolling.
    viewport_px / prefetch_margin_px:
        Viewport height and how far ahead the browser starts fetches
        (lazy-loading browsers use ~1-3 viewport heights).
    bandwidth_bps / connections / rtt:
        Transfer model (per-connection bandwidth, pool, per-fetch RTT).
    check_latency:
        IRS check latency model; None disables checks entirely.
    start_delay_s:
        Dwell time on the initial screen before scrolling begins.  The
        first screenful's readiness is page *load* (the E1/E2 models),
        not scroll jank, so its deadline is the start of scrolling.
    """

    def __init__(
        self,
        rtt: LatencyModel,
        check_latency: Optional[LatencyModel] = None,
        scroll_speed_px_s: float = 800.0,
        viewport_px: float = 900.0,
        prefetch_margin_px: float = 1800.0,
        bandwidth_bps: float = 25e6 / 6,
        connections: int = 6,
        start_delay_s: float = 2.0,
    ):
        if scroll_speed_px_s <= 0 or viewport_px <= 0 or prefetch_margin_px < 0:
            raise ValueError("invalid scroll geometry")
        if bandwidth_bps <= 0 or connections < 1:
            raise ValueError("invalid transfer model")
        if start_delay_s < 0:
            raise ValueError("start delay cannot be negative")
        self.rtt = rtt
        self.check_latency = check_latency
        self.scroll_speed = float(scroll_speed_px_s)
        self.viewport_px = float(viewport_px)
        self.prefetch_margin_px = float(prefetch_margin_px)
        self.bandwidth_bps = float(bandwidth_bps)
        self.connections = int(connections)
        self.start_delay_s = float(start_delay_s)

    def _transfer(self, size_bytes: int) -> float:
        return size_bytes * 8.0 / self.bandwidth_bps

    def run(self, feed: ScrollFeed, rng: np.random.Generator) -> ScrollResult:
        """Scroll the whole feed; returns jank metrics.

        Time 0 is when scrolling starts with the viewport at the top.
        Images in the first viewport+margin are fetchable immediately.
        """
        result = ScrollResult()
        # Check latencies draw from a child stream (seeded from the
        # main one unconditionally) so checks-on and checks-off runs
        # of the same seed see identical RTT sequences.
        check_rng = np.random.default_rng(int(rng.integers(2**63)))
        # Per-connection next-free time.
        pool = [0.0] * self.connections
        for index in range(feed.num_images):
            row_top = feed.row_of(index) * feed.row_height_px
            # Visible when the viewport bottom reaches the row top;
            # scrolling starts after the dwell on the first screen.
            visible_at = self.start_delay_s + max(
                0.0, (row_top - self.viewport_px) / self.scroll_speed
            )
            # Fetch eligible when within the prefetch margin (fetching
            # begins immediately at t=0, during the dwell).
            fetch_eligible = max(
                0.0,
                (row_top - self.viewport_px - self.prefetch_margin_px)
                / self.scroll_speed,
            )
            start = max(fetch_eligible, heapq.heappop(pool))
            rtt = self.rtt.sample(rng)
            metadata_at = start + rtt + self._transfer(feed.metadata_prefix_bytes)
            download_done = start + rtt + self._transfer(feed.image_sizes[index])
            heapq.heappush(pool, download_done)
            ready = download_done
            if self.check_latency is not None and feed.labeled[index]:
                result.checks_issued += 1
                check_done = metadata_at + self.check_latency.sample(check_rng)
                ready = max(ready, check_done)
            result.visible_times.append(visible_at)
            result.ready_times.append(ready)
        return result

    def compare(
        self, feed: ScrollFeed, seed: int
    ) -> tuple[ScrollResult, ScrollResult]:
        """(with_checks, without_checks) under identical network draws.

        RTT draws are consumed identically in both runs; check draws
        come from an independent stream.
        """
        with_checks = self.run(feed, np.random.default_rng(seed))
        bare = ScrollSession(
            rtt=self.rtt,
            check_latency=None,
            scroll_speed_px_s=self.scroll_speed,
            viewport_px=self.viewport_px,
            prefetch_margin_px=self.prefetch_margin_px,
            bandwidth_bps=self.bandwidth_bps,
            connections=self.connections,
            start_delay_s=self.start_delay_s,
        )
        without = bare.run(feed, np.random.default_rng(seed))
        return with_checks, without
