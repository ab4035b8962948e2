"""The registry's lookup index changes what a lookup costs, not ``/metrics``.

``MetricsRegistry`` finds a metric through an index of the labels as
the call site spelled them, in front of the sorted canonical key.  A
seeded request sequence against a live server, on an observability
clock that stands still (so latencies are not wall-time noise), must
render byte-identical ``/metrics`` text with the index and with every
lookup forced down the canonical, sorting path.  Two indexed runs agree
too, so the comparison is not vacuous.
"""

import asyncio

from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.service.app import ServiceApp, ServiceServer
from repro.service.cluster import LiveCluster
from repro.service.protocol import HttpClient


class _NoIndex(dict):
    """An index that never remembers: every lookup sorts its labels."""

    def __setitem__(self, key, value):
        pass


async def _scrape_after_seeded_requests():
    obs = Observability(clock=lambda: 0.0)
    cluster = LiveCluster(4, obs=obs, seed=5)
    app = ServiceApp(cluster=cluster, obs=obs)
    # The frontend keeps the loop's clock; the app's request timer,
    # which reads the cluster's, stands still like the spans.
    cluster.clock = obs.now
    population = cluster.seed_population(16, revoked_fraction=0.5)
    app.adopt_population(population)
    server = ServiceServer(app, port=0)
    await server.start()
    client = HttpClient(server.host, server.port)
    try:
        ids = [identifier.to_string() for identifier in population.identifiers]
        for id_ in ids:
            assert (await client.request("GET", f"/status/{id_}")).status == 200
        assert (await client.request("POST", "/status", {"ids": ids})).status == 200
        claimed = await client.request("POST", "/claims", {"content": "indexed"})
        assert claimed.status == 201
        for action in ("revoke", "unrevoke"):
            r = await client.request(
                "POST", "/revocations", {"id": claimed.json()["id"], "action": action}
            )
            assert r.status == 200
        assert (await client.request("GET", "/status/not-an-id")).status == 400
        assert (await client.request("GET", "/nowhere")).status == 404
        return (await client.request("GET", "/metrics")).body
    finally:
        await client.close()
        await server.stop()


def test_metrics_text_is_the_same_with_and_without_the_index(monkeypatch):
    indexed = asyncio.run(_scrape_after_seeded_requests())
    assert asyncio.run(_scrape_after_seeded_requests()) == indexed
    init = MetricsRegistry.__init__

    def unindexed(self):
        init(self)
        self._index = _NoIndex()

    monkeypatch.setattr(MetricsRegistry, "__init__", unindexed)
    assert asyncio.run(_scrape_after_seeded_requests()) == indexed
    assert b'frontend_answers_total{source="shard"}' in indexed
    assert b'service_responses_total{code="404"}' in indexed
