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
Each name has one home, its submodule (``repro.service.app``,
``.cluster``, ``.protocol``, ``.errors``, ``.routes``): importing the
package loads none of them.
"""
