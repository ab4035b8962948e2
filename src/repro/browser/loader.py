"""Critical-rendering-path page-load model (section 4.3, experiments E1/E2).

The model reproduces the mechanics behind the paper's latency argument:

* The browser fetches HTML first, then render-blocking CSS/JS, then
  images over a fixed-size connection pool (6 parallel connections,
  like HTTP/1.1 browsers; the conclusions are insensitive to this).
* Each fetch costs one RTT plus transfer time at per-connection
  bandwidth.
* With IRS enabled, every *labeled* image needs a revocation check
  before rendering.  Two scheduling modes:

  - ``BLOCKING``: the check starts only after the image fully
    downloads (a naive extension) — check latency adds directly.
  - ``PIPELINED``: the check is issued as soon as the metadata prefix
    arrives ("one can generally check a photo as soon as its metadata
    has been downloaded").  The check overlaps the remaining transfer,
    so it delays rendering only when check latency exceeds the
    remaining download time — the paper's pinterest observation that
    checks under ~250 ms add **zero** render delay.

The model is analytic/deterministic given sampled latencies, which
keeps E1/E2 fast while preserving the overlap structure that the claim
is actually about.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.browser.page import Page
from repro.netsim.latency import LatencyModel

__all__ = ["PageLoadModel", "PageLoadResult", "CheckMode", "ImageTiming"]


class CheckMode(enum.Enum):
    """When revocation checks are issued relative to image transfers."""

    OFF = "off"
    BLOCKING = "blocking"
    PIPELINED = "pipelined"


@dataclass
class ImageTiming:
    """Per-image milestones (seconds from navigation start)."""

    name: str
    fetch_start: float
    metadata_at: float
    download_done: float
    check_done: Optional[float]
    rendered_at: float

    @property
    def check_delay(self) -> float:
        """Render delay attributable to the revocation check."""
        return max(0.0, self.rendered_at - self.download_done)


@dataclass
class PageLoadResult:
    """Milestones for a whole page load."""

    first_contentful_paint: float
    images: List[ImageTiming] = field(default_factory=list)
    page_complete: float = 0.0
    checks_issued: int = 0

    @property
    def total_check_delay(self) -> float:
        return sum(img.check_delay for img in self.images)


class PageLoadModel:
    """Simulates one page load.

    Parameters
    ----------
    bandwidth_bps:
        Per-connection bandwidth (25 Mbps default: fixed-broadband
        median of the Web Almanac era).
    rtt:
        Round-trip latency model to the content server.
    connections:
        Parallel connection pool size.
    check_latency:
        Latency model for one revocation check (browser->proxy->maybe
        ledger and back).  Ignored when ``mode`` is OFF.
    mode:
        Check scheduling mode.
    """

    def __init__(
        self,
        rtt: LatencyModel,
        bandwidth_bps: float = 25e6,
        connections: int = 6,
        check_latency: Optional[LatencyModel] = None,
        mode: CheckMode = CheckMode.OFF,
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if connections < 1:
            raise ValueError("need at least one connection")
        if mode is not CheckMode.OFF and check_latency is None:
            raise ValueError("check_latency required when checks are enabled")
        self.rtt = rtt
        self.bandwidth_bps = float(bandwidth_bps)
        self.connections = int(connections)
        self.check_latency = check_latency
        self.mode = mode

    def _transfer_time(self, size_bytes: int) -> float:
        return size_bytes * 8.0 / self.bandwidth_bps

    def load(self, page: Page, rng: np.random.Generator) -> PageLoadResult:
        """Simulate loading ``page``; returns all milestones.

        All fetch RTTs are pre-sampled in document order *before* any
        check latencies, so a checks-on run and a checks-off run from
        the same seed see identical network conditions and differ only
        by the checks themselves.
        """
        fetch_rtts = self.rtt.sample_many(rng, 1 + len(page.aux) + len(page.images))
        rtt_iter = iter(fetch_rtts)

        # 1. HTML (one connection, blocking everything).
        html_done = next(rtt_iter) + self._transfer_time(page.html_bytes)

        # 2. Render-blocking CSS/JS over the pool.
        pool = [html_done] * self.connections  # per-connection free time
        aux_done = html_done
        for resource in page.aux:
            start = heapq.heappop(pool)
            done = start + next(rtt_iter) + self._transfer_time(
                resource.size_bytes
            )
            heapq.heappush(pool, done)
            aux_done = max(aux_done, done)
        fcp = aux_done  # first paint once blocking resources are in

        # 3. Images over the pool, greedy in document order.
        pool = [aux_done] * self.connections
        timings: List[ImageTiming] = []
        checks_issued = 0
        for image in page.images:
            start = heapq.heappop(pool)
            rtt = next(rtt_iter)
            metadata_at = start + rtt + self._transfer_time(
                image.metadata_prefix_bytes
            )
            download_done = start + rtt + self._transfer_time(image.size_bytes)
            heapq.heappush(pool, download_done)

            check_done: Optional[float] = None
            if self.mode is not CheckMode.OFF and image.labeled:
                checks_issued += 1
                latency = self.check_latency.sample(rng)
                if self.mode is CheckMode.PIPELINED:
                    check_done = metadata_at + latency
                else:
                    check_done = download_done + latency
            rendered_at = (
                max(download_done, check_done)
                if check_done is not None
                else download_done
            )
            timings.append(
                ImageTiming(
                    name=image.name,
                    fetch_start=start,
                    metadata_at=metadata_at,
                    download_done=download_done,
                    check_done=check_done,
                    rendered_at=rendered_at,
                )
            )

        page_complete = max(
            [fcp] + [t.rendered_at for t in timings], default=fcp
        )
        return PageLoadResult(
            first_contentful_paint=fcp,
            images=timings,
            page_complete=page_complete,
            checks_issued=checks_issued,
        )

    def compare_against_baseline(
        self, page: Page, rng_seed: int
    ) -> tuple[PageLoadResult, PageLoadResult, float]:
        """Load with checks and without, using identical network draws.

        Returns (with_checks, baseline, added_page_time).  The two runs
        share a seed so fetch times are identical and any difference is
        attributable to checks alone.
        """
        with_checks = self.load(page, np.random.default_rng(rng_seed))
        baseline_model = PageLoadModel(
            rtt=self.rtt,
            bandwidth_bps=self.bandwidth_bps,
            connections=self.connections,
            mode=CheckMode.OFF,
        )
        baseline = baseline_model.load(page, np.random.default_rng(rng_seed))
        added = with_checks.page_complete - baseline.page_complete
        return with_checks, baseline, added
