"""Integration: the bootstrap phase wired end-to-end.

Browsers with IRS extensions -> anonymizing proxy (cache + OR'd Bloom
filters) -> multiple commercial ledgers, exercised by a Zipf browsing
trace.  This is the deployment of section 4 in one test.
"""

import numpy as np
import pytest

from repro.browser.extension import IrsBrowserExtension
from repro.core import IrsDeployment
from repro.ledger.export import FilterExporter
from repro.netsim.simulator import ManualClock
from repro.proxy.anonymity import ObservationLog, anonymity_report
from repro.proxy.cache import TtlLruCache
from repro.proxy.filterset import ProxyFilterSet
from repro.proxy.proxy import IrsProxy
from repro.workload.population import populate_ledger
from repro.workload.traces import BrowsingTraceGenerator


@pytest.fixture(scope="module")
def bootstrap():
    irs = IrsDeployment.create(seed=91, num_ledgers=3)
    rng = np.random.default_rng(91)
    populations = [
        populate_ledger(ledger, 2000, 0.5, rng) for ledger in irs.ledgers
    ]
    exporters = []
    for ledger in irs.ledgers:
        exporter = FilterExporter(ledger, nbits=1 << 16, num_hashes=5)
        exporter.publish()
        exporters.append(exporter)
    filterset = ProxyFilterSet()
    for exporter in exporters:
        filterset.subscribe(exporter)
    filterset.refresh()
    clock = ManualClock()
    observations = ObservationLog()
    proxy = IrsProxy(
        "bootstrap-proxy",
        irs.registry,
        filterset=filterset,
        cache=TtlLruCache(50_000, ttl=3600, clock=clock.now),
        clock=clock.now,
        observation_log=observations,
    )
    return irs, populations, proxy, observations, clock, rng


class TestBootstrapPipeline:
    def test_trace_through_proxy(self, bootstrap):
        irs, populations, proxy, observations, clock, rng = bootstrap
        population = populations[0]
        generator = BrowsingTraceGenerator(
            population, num_users=25, rng=rng, revoked_view_fraction=0.005
        )
        extensions = {
            f"user-{u}": IrsBrowserExtension(status_source=proxy.status)
            for u in range(25)
        }
        events = generator.generate(views_per_user=80)
        blocked = 0
        for event in events:
            clock.advance(0.01)
            identifier = population.identifiers[event.photo_index]
            decision = extensions[event.user].check_identifier(identifier)
            if not decision.display:
                blocked += 1
        total = len(events)
        # Structure of the run: most views short-circuit at the filter;
        # ledger queries are a small fraction; revoked views blocked.
        assert proxy.stats.queries == total
        assert proxy.stats.filter_short_circuits > 0.8 * total
        assert proxy.stats.load_reduction_factor > 10
        assert blocked > 0

    def test_ledgers_see_only_proxy(self, bootstrap):
        _, _, _, observations, _, _ = bootstrap
        assert observations.requesters() <= {"bootstrap-proxy"}

    def test_anonymity_report_shows_hiding(self, bootstrap):
        irs, populations, proxy, observations, clock, rng = bootstrap
        users = [f"user-{u}" for u in range(25)]
        report = anonymity_report(
            observations,
            requester_populations={"bootstrap-proxy": users},
            viewer_checks={u: 80 for u in users},
        )
        assert report.attribution_rate == 0.0
        assert report.mean_anonymity_set == 25.0
        assert report.profile_leakage == 0.0

    def test_revocation_propagates_within_filter_period(self, bootstrap):
        """An owner revokes; after the next hourly filter publish +
        proxy refresh, the bootstrap pipeline blocks the photo."""
        irs, populations, proxy, _, clock, rng = bootstrap
        population = populations[1]
        # Pick an unrevoked photo and revoke it directly via the store
        # (bulk population uses a shared key, so no owner can sign).
        from repro.ledger.records import RevocationState

        idx = int(np.nonzero(~population.revoked_mask)[0][0])
        identifier = population.identifiers[idx]
        extension = IrsBrowserExtension(status_source=proxy.status)
        assert extension.check_identifier(identifier).display

        record = irs.ledgers[1].record(identifier)
        irs.ledgers[1].store.apply_flip(
            identifier.serial,
            RevocationState.REVOKED,
            record.revocation_epoch + 1,
            "revoke",
            clock.now(),
        )

        # Next hourly cycle: ledger republishes, proxy refreshes.
        for ledger in irs.ledgers:
            pass
        exporter = proxy.filterset._subscriptions[irs.ledgers[1].ledger_id].exporter
        exporter.publish()
        proxy.refresh_filters()
        clock.advance(3601.0)  # expire any cached answer
        assert not extension.check_identifier(identifier).display
