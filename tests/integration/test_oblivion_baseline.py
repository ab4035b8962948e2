"""Tests for the reactive (Oblivion-style) takedown baseline."""

import numpy as np
import pytest

from repro.aggregator.aggregator import AggregatorConfig, ContentAggregator
from repro.baselines.oblivion import ReactiveTakedownSystem
from repro.core import IrsDeployment
from repro.media.jpeg import jpeg_roundtrip
from repro.netsim.simulator import Simulator

HOUR = 3600.0
DAY = 24 * HOUR


@pytest.fixture()
def world():
    """Three legacy sites hosting copies of one photo plus decoys."""
    irs = IrsDeployment.create(seed=230)
    sim = Simulator()
    target = irs.new_photo()
    sites = []
    for i in range(3):
        site = ContentAggregator(
            f"legacy-{i}", irs.registry, config=AggregatorConfig.legacy(),
            clock=sim.clock().now,
        )
        # A transcoded copy of the target plus unrelated photos.
        site.host(f"copy-{i}", jpeg_roundtrip(target, 70), identifier=None)
        site.host(f"other-{i}", irs.new_photo(), identifier=None)
        sites.append(site)
    return irs, sim, target, sites


class TestReactiveTakedown:
    def test_finds_and_removes_all_copies(self, world):
        irs, sim, target, sites = world
        system = ReactiveTakedownSystem(
            sites, sim, crawl_interval=6 * HOUR, processing_delay=DAY
        )
        campaign = system.request_removal(target, until=10 * DAY)
        sim.run(until=10 * DAY)
        assert campaign.outcome.copies_found == 3
        assert len(campaign.outcome.takedown_times) == 3
        assert not any(site.serve(f"copy-{i}").served for i, site in enumerate(sites))

    def test_decoys_untouched(self, world):
        irs, sim, target, sites = world
        system = ReactiveTakedownSystem(sites, sim)
        system.request_removal(target, until=10 * DAY)
        sim.run(until=10 * DAY)
        for i, site in enumerate(sites):
            assert site.serve(f"other-{i}").served

    def test_takedown_latency_includes_processing(self, world):
        irs, sim, target, sites = world
        system = ReactiveTakedownSystem(
            sites, sim, crawl_interval=HOUR, processing_delay=2 * DAY
        )
        campaign = system.request_removal(target, until=10 * DAY)
        sim.run(until=10 * DAY)
        assert campaign.outcome.mean_takedown_latency >= 2 * DAY

    def test_reupload_restarts_the_cycle(self, world):
        """The structural weakness: nothing blocks re-uploads."""
        irs, sim, target, sites = world
        system = ReactiveTakedownSystem(
            sites, sim, crawl_interval=6 * HOUR, processing_delay=DAY
        )
        campaign = system.request_removal(target, until=30 * DAY)

        def reupload():
            sites[0].host("copy-again", jpeg_roundtrip(target, 60), identifier=None)

        sim.schedule(5 * DAY, reupload)
        sim.run(until=30 * DAY)
        # The re-upload was found and removed — but only by crawling
        # again and filing again (4 total requests for 3 original
        # copies), and it was visible for at least processing_delay.
        assert campaign.outcome.requests_filed == 4
        assert len(campaign.outcome.takedown_times) == 4
        reupload_takedown = max(campaign.outcome.takedown_times)
        assert reupload_takedown - 5 * DAY >= DAY

    def test_validation(self, world):
        _, sim, _, sites = world
        with pytest.raises(ValueError):
            ReactiveTakedownSystem(sites, sim, crawl_interval=0.0)
