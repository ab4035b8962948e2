"""A reactive takedown baseline in the style of Oblivion [28].

The reactive workflow the paper contrasts IRS with:

1. the affected person (or a service acting for them) **discovers**
   copies by periodically crawling sites and matching content
   (perceptual hashing — same primitive as our appeals process);
2. for each discovered copy they **file a per-site takedown request**;
3. each site **processes** the request after some handling delay
   (human review queues: hours to days);
4. nothing **prevents re-uploads** — each new copy restarts the cycle.

The contrast with IRS: one ledger flip covers every participating site
at the next recheck (and blocks *future* uploads outright), while the
reactive path pays per-copy discovery + per-site processing forever.

The simulation uses the same discrete-event machinery and hosting
primitives as the IRS path so the comparison in experiment E16 is
apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.aggregator.aggregator import ContentAggregator
from repro.media.image import Photo
from repro.media.perceptual import DEFAULT_MATCH_THRESHOLD, RobustHash, robust_hash
from repro.netsim.simulator import Simulator

__all__ = ["ReactiveTakedownSystem", "TakedownCampaign", "CampaignOutcome"]


@dataclass
class CampaignOutcome:
    """What one takedown campaign achieved, and when."""

    requested_at: float
    copies_found: int = 0
    takedown_times: List[float] = field(default_factory=list)
    crawls_performed: int = 0
    requests_filed: int = 0

    @property
    def completed_at(self) -> Optional[float]:
        """When the last discovered copy came down (None if none did)."""
        return max(self.takedown_times) if self.takedown_times else None

    @property
    def mean_takedown_latency(self) -> Optional[float]:
        if not self.takedown_times:
            return None
        return float(
            np.mean([t - self.requested_at for t in self.takedown_times])
        )


@dataclass
class TakedownCampaign:
    """An active reactive-takedown effort for one photo."""

    target_signature: RobustHash
    outcome: CampaignOutcome
    pending_requests: Dict[str, float] = field(default_factory=dict)
    seen: set = field(default_factory=set)  # (site, name) already handled


class ReactiveTakedownSystem:
    """Oblivion-style reactive removal across a set of sites.

    Parameters
    ----------
    sites:
        The aggregators to police.  They need no IRS support — the
        takedown path is the classic report-and-review flow every site
        already has.
    crawl_interval:
        Seconds between content crawls per campaign (discovery is
        polling: the victim or their service re-scans the web).
    processing_delay:
        Seconds a site takes to action a filed request (review queues).
    match_threshold:
        Perceptual-hash distance treated as "this is the photo".
    """

    def __init__(
        self,
        sites: List[ContentAggregator],
        simulator: Simulator,
        crawl_interval: float = 6 * 3600.0,
        processing_delay: float = 24 * 3600.0,
        match_threshold: float = DEFAULT_MATCH_THRESHOLD,
    ):
        if crawl_interval <= 0 or processing_delay < 0:
            raise ValueError("invalid timing parameters")
        self.sites = sites
        self.simulator = simulator
        self.crawl_interval = float(crawl_interval)
        self.processing_delay = float(processing_delay)
        self.match_threshold = float(match_threshold)
        self.campaigns: List[TakedownCampaign] = []

    # -- campaign lifecycle -----------------------------------------------------

    def request_removal(self, photo: Photo, until: float) -> TakedownCampaign:
        """Start a campaign to remove copies of ``photo`` everywhere.

        Crawling begins immediately and repeats until ``until``.
        """
        campaign = TakedownCampaign(
            target_signature=robust_hash(photo),
            outcome=CampaignOutcome(requested_at=self.simulator.now),
        )
        self.campaigns.append(campaign)

        def crawl_cycle():
            self._crawl_once(campaign)
            next_time = self.simulator.now + self.crawl_interval
            if next_time <= until:
                self.simulator.schedule(self.crawl_interval, crawl_cycle)

        self.simulator.schedule(0.0, crawl_cycle)
        return campaign

    def _crawl_once(self, campaign: TakedownCampaign) -> None:
        campaign.outcome.crawls_performed += 1
        for site in self.sites:
            for hosted in site.live_photos():
                key = (site.name, hosted.name)
                if key in campaign.seen:
                    continue
                distance = campaign.target_signature.distance(
                    robust_hash(hosted.photo)
                )
                if distance > self.match_threshold:
                    continue
                campaign.seen.add(key)
                campaign.outcome.copies_found += 1
                campaign.outcome.requests_filed += 1
                self._file_request(campaign, site, hosted.name)

    def _file_request(
        self, campaign: TakedownCampaign, site: ContentAggregator, name: str
    ) -> None:
        def process():
            hosted = site.hosted(name)
            if hosted is not None and not hosted.taken_down:
                site.take_down(name, reason="reactive takedown request honoured")
                campaign.outcome.takedown_times.append(self.simulator.now)

        self.simulator.schedule(self.processing_delay, process)

