"""Shared helpers: an ephemeral-port server + client inside one loop.

There is no pytest-asyncio here by design — each test owns its loop
via ``asyncio.run`` so server, cluster, and client share exactly one
event loop and tear down deterministically.  ``serve`` yields an
:class:`Env` with fault hooks (kill/delay shards) so the envelope
tests can manufacture each failure mode on demand.
"""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager
from dataclasses import dataclass
from typing import Optional

from repro.cluster import ClusterConfig
from repro.obs import Observability
from repro.service.app import ServiceApp, ServiceServer
from repro.service.cluster import LiveCluster
from repro.service.protocol import HttpClient


@dataclass
class Env:
    cluster: LiveCluster
    app: ServiceApp
    server: ServiceServer
    client: HttpClient
    obs: Observability

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port


@asynccontextmanager
async def serve(
    config: Optional[ClusterConfig] = None,
    populate: int = 0,
    revoked_fraction: float = 0.0,
    with_obs: bool = True,
    num_shards: int = 4,
):
    loop = asyncio.get_running_loop()
    obs = Observability(clock=loop.time) if with_obs else None
    cluster = LiveCluster(num_shards, config=config, obs=obs)
    app = ServiceApp(cluster=cluster, obs=obs)
    population = None
    if populate:
        population = cluster.seed_population(populate, revoked_fraction)
        app.adopt_population(population)
    server = ServiceServer(app, port=0)
    await server.start()
    client = HttpClient(server.host, server.port)
    env = Env(cluster=cluster, app=app, server=server, client=client, obs=obs)
    env.population = population  # type: ignore[attr-defined]
    try:
        yield env
    finally:
        await client.close()
        await server.stop()
