"""E21 — the HTTP service vs the paper's §4.4 latency budgets.

The previous experiments validated the <100 ms ledger-operation and
<250 ms revocation-check budgets inside the simulator; E21 re-takes
the measurement over a real socket: a stdlib-asyncio HTTP server in
front of live in-process shards, driven by the seeded open-loop load
generator, p50/p99 measured by the client.

Claims asserted per arrival rate:

* status checks (the revocation-check path) keep p99 under 250 ms;
* ledger operations (claims + revocations) keep p99 under 100 ms;
* the loadgen invariant checker stays empty — documented envelopes
  only, no fail-open, no lost claims — under load and (in the fault
  row) with a replica down mid-run;
* the smoke run's server then answers a ``/metrics`` scrape with its
  ``service_*`` series.
"""

import asyncio
from typing import Tuple

import pytest

from repro.metrics.reporting import Table
from repro.obs import Observability
from repro.service.app import ServiceApp, ServiceServer
from repro.service.cluster import LiveCluster
from repro.service.loadgen import LoadgenConfig, LoadReport, run_loadgen
from repro.service.protocol import HttpClient, HttpResponse

STATUS_BUDGET_MS = 250.0  # §4.4: revocation checks
LEDGER_BUDGET_MS = 100.0  # §4.4: ledger operations


async def _drive(
    rate: float,
    duration: float,
    seed: int,
    kill_shard: bool = False,
) -> Tuple[LoadReport, HttpResponse]:
    """Serve on an ephemeral port, run one seeded open-loop burst, scrape."""
    loop = asyncio.get_running_loop()
    obs = Observability(clock=loop.time)
    cluster = LiveCluster(seed=seed, obs=obs)
    app = ServiceApp(cluster=cluster, obs=obs)
    population = cluster.seed_population(128, revoked_fraction=0.2)
    app.adopt_population(population)
    server = ServiceServer(app, port=0)
    host, port = await server.start()
    killer = None
    if kill_shard:
        killer = loop.call_later(
            duration / 2, cluster.kill_shard, "shard-3"
        )
    try:
        report = await run_loadgen(LoadgenConfig(
            host=host, port=port, rate=rate, duration=duration, seed=seed,
            deadline_ms=STATUS_BUDGET_MS,
        ))
        client = HttpClient(host, port)
        try:
            metrics = await client.request("GET", "/metrics")
        finally:
            await client.close()
    finally:
        if killer is not None:
            killer.cancel()
        cluster.revive_shard("shard-3")
        await server.stop()
    return report, metrics


def _rows(report: LoadReport, label: str) -> list:
    status = report.of_op("status")
    ledger = report.of_op("claim", "revoke")
    status_p99 = LoadReport.percentile(status, 99)
    ledger_p99 = LoadReport.percentile(ledger, 99)
    return [
        label,
        len(status),
        f"{LoadReport.percentile(status, 50):.1f}",
        f"{status_p99:.1f}",
        len(ledger),
        f"{LoadReport.percentile(ledger, 50):.1f}",
        f"{ledger_p99:.1f}",
        f"{report.answered_fraction():.1%}",
        len(report.violations),
        "yes" if status_p99 < STATUS_BUDGET_MS and ledger_p99 < LEDGER_BUDGET_MS
        else "NO",
    ]


def _assert_budgets(report: LoadReport, label: str) -> None:
    status_p99 = LoadReport.percentile(report.of_op("status"), 99)
    ledger_p99 = LoadReport.percentile(report.of_op("claim", "revoke"), 99)
    assert report.violations == [], (
        f"{label}: loadgen invariants violated: {report.violations}"
    )
    assert status_p99 < STATUS_BUDGET_MS, (
        f"{label}: status p99 {status_p99:.1f} ms breaches the "
        f"{STATUS_BUDGET_MS:g} ms revocation-check budget"
    )
    assert ledger_p99 < LEDGER_BUDGET_MS, (
        f"{label}: ledger-op p99 {ledger_p99:.1f} ms breaches the "
        f"{LEDGER_BUDGET_MS:g} ms ledger-operation budget"
    )


def _service_table(variant: str = "") -> Table:
    return Table(
        headers=[
            "workload", "status ops", "status p50 ms", "status p99 ms",
            "ledger ops", "ledger p50 ms", "ledger p99 ms",
            "answered", "violations", "within budgets",
        ],
        title="E21: HTTP service latency vs paper section 4.4 budgets "
        "(real socket)" + (f" {variant}" if variant else ""),
    )


def test_e21_service_budgets(report):
    """Rate sweep + one faulted row, each gated on the §4.4 budgets."""
    t = _service_table()
    for rate, duration, seed in ((100, 3.0, 0), (300, 3.0, 1), (600, 3.0, 2)):
        run, _ = asyncio.run(_drive(rate, duration, seed))
        t.add(*_rows(run, f"{rate} req/s"))
        _assert_budgets(run, f"{rate} req/s")
    faulted, _ = asyncio.run(_drive(200, 3.0, seed=3, kill_shard=True))
    t.add(*_rows(faulted, "200 req/s, shard killed"))
    _assert_budgets(faulted, "200 req/s with a dead replica")
    report(t)


def test_e21_smoke(report):
    """CI variant: one short burst, same assertions, and a clean scrape."""
    t = _service_table("smoke")
    run, metrics = asyncio.run(_drive(100, 1.5, seed=0))
    t.add(*_rows(run, "100 req/s (smoke)"))
    _assert_budgets(run, "smoke")
    assert metrics.status == 200, f"/metrics answered {metrics.status}"
    assert b"service_requests_total" in metrics.body, (
        "/metrics exposition lacks service_* series"
    )
    report(t)


@pytest.mark.parametrize("seed", [0, 7])
def test_e21_loadgen_schedule_deterministic(seed):
    """Same seed, same arrival schedule — the open loop is replayable."""
    import numpy as np

    from repro.service.loadgen import arrival_schedule

    a = arrival_schedule(200.0, 2.0, np.random.default_rng(seed))
    b = arrival_schedule(200.0, 2.0, np.random.default_rng(seed))
    assert np.array_equal(a, b)
    assert (a < 2.0).all()
