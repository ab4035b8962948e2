"""The HTTP/JSON service surface in front of the cluster.

``repro.service`` bridges the reproduction to a real network service:
a stdlib-``asyncio`` HTTP/1.1 server (no web framework) that exposes
the claim / label / revoke / status protocol over JSON, in front of
the same :class:`~repro.cluster.frontend.ClusterFrontend` the
simulated experiments drive.  The event loop's ``loop.time`` /
``loop.call_later`` stand in for the simulator's clock and scheduler,
so the frontend's deadline backstop, circuit breakers, token-bucket
shedding and degraded Bloom reads all operate unchanged — E21 measures
them over a real socket against the paper's §4.4 budgets.

The API contract lives in ``docs/api.md`` and is drift-checked two-way
against :data:`repro.service.routes.ROUTES` by ``tools/check_docs.py``.
"""

from repro.service.app import ServiceApp, ServiceServer
from repro.service.cluster import LiveCluster
from repro.service.errors import ERROR_STATUS, ApiError, error_envelope
from repro.service.loadgen import LoadgenConfig, LoadReport, run_loadgen
from repro.service.routes import ROUTES, Route, match_route

__all__ = [
    "ApiError",
    "ERROR_STATUS",
    "LiveCluster",
    "LoadReport",
    "LoadgenConfig",
    "ROUTES",
    "Route",
    "ServiceApp",
    "ServiceServer",
    "error_envelope",
    "match_route",
    "run_loadgen",
]
