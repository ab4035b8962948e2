"""Tests for the page model and the critical-rendering-path loader —
the machinery behind the section 4.3 latency claims."""

import numpy as np
import pytest

from repro.browser.loader import CheckMode, PageLoadModel
from repro.browser.page import AuxResource, ImageResource, Page
from repro.netsim.latency import ConstantLatency
from repro.workload.pages import pinterest_like_page
from repro.core.identifiers import PhotoIdentifier


def _labeled_page(num_images=10, size=50_000):
    images = [
        ImageResource(
            name=f"i{i}",
            size_bytes=size,
            identifier=PhotoIdentifier(ledger_id="l", serial=i + 1),
        )
        for i in range(num_images)
    ]
    return Page(name="p", html_bytes=20_000, aux=[], images=images)


class TestPageModel:
    def test_counts(self):
        page = _labeled_page(5)
        assert page.num_images == 5
        assert page.num_labeled_images == 5
        assert page.total_bytes == 20_000 + 5 * 50_000

    def test_metadata_prefix_clamped(self):
        image = ImageResource(name="x", size_bytes=500, metadata_prefix_bytes=2048)
        assert image.metadata_prefix_bytes == 500

    def test_validation(self):
        with pytest.raises(ValueError):
            ImageResource(name="x", size_bytes=0)
        with pytest.raises(ValueError):
            AuxResource(name="x", size_bytes=100, kind="font")
        with pytest.raises(ValueError):
            Page(name="p", html_bytes=0)

    def test_generators(self, rng):
        page = pinterest_like_page(rng, num_images=30)
        assert page.num_images == 30
        assert page.num_labeled_images == 30  # default: all labeled
        unlabeled = pinterest_like_page(rng, num_images=6, labeled_fraction=0.0)
        assert unlabeled.num_labeled_images == 0


class TestLoaderBaseline:
    def test_no_checks_no_check_delay(self, rng):
        model = PageLoadModel(rtt=ConstantLatency(0.02), mode=CheckMode.OFF)
        result = model.load(_labeled_page(), rng)
        assert result.checks_issued == 0
        assert result.total_check_delay == 0.0

    def test_page_complete_after_fcp(self, rng):
        model = PageLoadModel(rtt=ConstantLatency(0.02), mode=CheckMode.OFF)
        result = model.load(_labeled_page(), rng)
        assert result.page_complete >= result.first_contentful_paint

    def test_more_images_take_longer(self, rng):
        model = PageLoadModel(rtt=ConstantLatency(0.02), connections=2)
        small = model.load(_labeled_page(4), np.random.default_rng(1))
        large = model.load(_labeled_page(40), np.random.default_rng(1))
        assert large.page_complete > small.page_complete

    def test_connection_pool_parallelism(self, rng):
        serial = PageLoadModel(rtt=ConstantLatency(0.02), connections=1)
        parallel = PageLoadModel(rtt=ConstantLatency(0.02), connections=6)
        page = _labeled_page(12)
        t_serial = serial.load(page, np.random.default_rng(2)).page_complete
        t_parallel = parallel.load(page, np.random.default_rng(2)).page_complete
        assert t_parallel < t_serial

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PageLoadModel(rtt=ConstantLatency(0.02), bandwidth_bps=0)
        with pytest.raises(ValueError):
            PageLoadModel(rtt=ConstantLatency(0.02), connections=0)
        with pytest.raises(ValueError):
            PageLoadModel(rtt=ConstantLatency(0.02), mode=CheckMode.PIPELINED)


class TestBlockingChecks:
    def test_blocking_adds_full_latency(self, rng):
        check = 0.1
        model = PageLoadModel(
            rtt=ConstantLatency(0.02),
            check_latency=ConstantLatency(check),
            mode=CheckMode.BLOCKING,
        )
        result = model.load(_labeled_page(6), rng)
        assert result.checks_issued == 6
        for timing in result.images:
            assert timing.check_delay == pytest.approx(check)

    def test_unlabeled_images_not_checked(self, rng):
        page = Page(
            name="p",
            html_bytes=10_000,
            images=[ImageResource(name="plain", size_bytes=40_000)],
        )
        model = PageLoadModel(
            rtt=ConstantLatency(0.02),
            check_latency=ConstantLatency(0.1),
            mode=CheckMode.BLOCKING,
        )
        result = model.load(page, rng)
        assert result.checks_issued == 0


class TestPipelinedChecks:
    """The paper's key mechanism: checks overlap the remaining download."""

    def test_fast_checks_add_zero_delay(self, rng):
        """Check completes before download: zero render delay (the
        pinterest claim)."""
        model = PageLoadModel(
            rtt=ConstantLatency(0.03),
            bandwidth_bps=10e6,  # 100KB image ~ 80 ms transfer
            check_latency=ConstantLatency(0.05),
            mode=CheckMode.PIPELINED,
        )
        page = _labeled_page(8, size=100_000)
        result = model.load(page, rng)
        assert result.total_check_delay == 0.0

    def test_slow_checks_add_only_excess(self, rng):
        """Check longer than the remaining download: only the excess
        delays rendering."""
        model = PageLoadModel(
            rtt=ConstantLatency(0.0),
            bandwidth_bps=8e6,  # 1 MB/s
            check_latency=ConstantLatency(0.5),
            mode=CheckMode.PIPELINED,
        )
        page = _labeled_page(1, size=102_048)  # 2048B prefix + 100KB body
        result = model.load(page, rng)
        # Remaining download after metadata = 100_000B at 1MB/s = 0.1s.
        assert result.images[0].check_delay == pytest.approx(0.4, abs=1e-6)

    def test_pipelined_never_slower_than_blocking(self, rng):
        page = _labeled_page(10)
        common = dict(
            rtt=ConstantLatency(0.02),
            check_latency=ConstantLatency(0.2),
        )
        pipelined = PageLoadModel(mode=CheckMode.PIPELINED, **common).load(
            page, np.random.default_rng(3)
        )
        blocking = PageLoadModel(mode=CheckMode.BLOCKING, **common).load(
            page, np.random.default_rng(3)
        )
        assert pipelined.page_complete <= blocking.page_complete

    def test_compare_against_baseline_isolates_checks(self):
        model = PageLoadModel(
            rtt=ConstantLatency(0.02),
            check_latency=ConstantLatency(0.01),
            mode=CheckMode.PIPELINED,
        )
        page = _labeled_page(10)
        with_checks, baseline, added = model.compare_against_baseline(page, 7)
        assert added >= 0.0
        assert with_checks.page_complete - baseline.page_complete == pytest.approx(
            added
        )
        # Identical network draws: image download_done must match.
        for a, b in zip(with_checks.images, baseline.images):
            assert a.download_done == pytest.approx(b.download_done)
