"""E21 — the HTTP service vs the paper's §4.4 latency budgets.

The previous experiments validated the <100 ms ledger-operation and
<250 ms revocation-check budgets inside the simulator; E21 re-takes
the measurement over a real socket: a stdlib-asyncio HTTP server in
front of live in-process shards, driven by a seeded open-loop burst
(arrivals do not wait for answers, so a slow server sees queueing),
p50/p99 measured by the client.

Every reply, and a sweep after the burst that reads back each claim
and revocation it acknowledged, is held to the reference model of the
tier-1 state machine (``tests/service/model.py``).

Claims asserted per arrival rate:

* status checks (the revocation-check path) keep p99 under 250 ms;
* ledger operations (claims + revocations) keep p99 under 100 ms;
* zero model violations — documented envelopes only, no fail-open, no
  lost claim — under load and (in the fault row) with a replica down
  mid-run;
* the smoke run's server then answers a ``/metrics`` scrape with its
  ``service_*`` series.
"""

import asyncio
import itertools

import numpy as np
import pytest

from repro.metrics.reporting import Table
from repro.obs import Observability
from repro.service.app import ServiceApp, ServiceServer
from repro.service.cluster import LiveCluster
from repro.service.protocol import HttpClient
from tests.service.model import ModelViolation, ServiceModel

STATUS_BUDGET_MS = 250.0  # §4.4: revocation checks, sent as X-Deadline-Ms
LEDGER_BUDGET_MS = 100.0  # §4.4: ledger operations
WRITE_DEADLINE_MS = 1000.0  # X-Deadline-Ms on claims and revocations
STATUS_SHARE, CLAIM_SHARE = 0.90, 0.05  # of arrivals; the rest revoke
WARMUP_CLAIMS = 32  # ids claimed before the clock starts
CONNECTIONS = 32  # keep-alive clients
ANSWERS = (200, 201, 203)


def schedule(rate: float, duration: float, seed: int):
    """Arrival offsets in [0, duration) (seeded exponential gaps), each
    arrival's op draw and its target draw: a pure function of the seed."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1.0 / rate, size=int(2 * rate * duration) + 16))
    times = times[times < duration]
    return times, rng.uniform(size=times.size), rng.integers(0, 1 << 30, size=times.size)


async def _drive(rate: float, duration: float, seed: int, kill_shard: bool = False):
    """Serve on an ephemeral port, run one seeded burst, sweep, scrape."""
    loop = asyncio.get_running_loop()
    obs = Observability(clock=loop.time)
    cluster = LiveCluster(seed=seed, obs=obs)
    app = ServiceApp(cluster=cluster, obs=obs)
    app.adopt_population(cluster.seed_population(128, revoked_fraction=0.2))
    server = ServiceServer(app, port=0)
    host, port = await server.start()
    model, clients = ServiceModel(), asyncio.Queue()
    for _ in range(CONNECTIONS):
        clients.put_nowait(HttpClient(host, port))
    run = {"status": [], "ledger": [], "codes": [], "violations": []}
    owned, revocable = [], []
    contents = (f"e21:{seed}:{n}" for n in itertools.count())

    async def send(op, method, path, body, judge, deadline_ms=WRITE_DEADLINE_MS):
        """One request on a free client; ``op`` None is not measured."""
        client = await clients.get()
        started = loop.time()
        try:
            response = await client.request(
                method, path, body, {"x-deadline-ms": f"{deadline_ms:g}"}
            )
            judge(response)
        except ModelViolation as exc:
            run["violations"].append(str(exc))
        except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
            await client.close()
            run["violations"].append(f"{method} {path}: transport failure {exc!r}")
            response = None
        finally:
            clients.put_nowait(client)
        if op is not None:
            run[op].append((loop.time() - started) * 1e3)
            run["codes"].append(response.status if response is not None else 0)
        return response

    async def claim(op):
        content = next(contents)
        id_ = model.send_claim(content, False)
        response = await send(op, "POST", "/claims", {"content": content},
                              lambda r: model.claim_reply(content, False, r))
        if response is not None and response.status == 201:
            owned.append(id_)
            revocable.append(id_)

    async def status(index):
        target = owned[index % len(owned)]
        sent_at = model.possible(target)  # the read may see either side of a write
        await send("status", "GET", f"/status/{target}", None,
                   lambda r: model.status_reply(target, r, sent_at), STATUS_BUDGET_MS)

    async def revoke(index):
        if not revocable:
            return await claim("ledger")
        target = revocable.pop(index % len(revocable))  # one write per id at a time
        model.send_revocation(target, "revoke")
        await send("ledger", "POST", "/revocations", {"id": target, "action": "revoke"},
                   lambda r: model.revocation_reply(target, "revoke", r))

    for _ in range(WARMUP_CLAIMS):
        await claim(None)
    if len(owned) < WARMUP_CLAIMS:
        run["violations"].append(f"warm-up: {WARMUP_CLAIMS - len(owned)} claims not acknowledged")
    killer = None
    if kill_shard:
        killer = loop.call_later(duration / 2, cluster.kill_shard, "shard-3")
    try:
        tasks, base = [], loop.time()
        for offset, pick, index in zip(*schedule(rate, duration, seed)):
            await asyncio.sleep(max(base + offset - loop.time(), 0.0))
            if pick < STATUS_SHARE:
                tasks.append(asyncio.ensure_future(status(int(index))))
            elif pick < STATUS_SHARE + CLAIM_SHARE:
                tasks.append(asyncio.ensure_future(claim("ledger")))
            else:
                tasks.append(asyncio.ensure_future(revoke(int(index))))
        await asyncio.gather(*tasks)
        for target in owned:  # fail-closed and durable: every acknowledged write reads back
            await send(None, "GET", f"/status/{target}", None,
                       lambda r: model.status_reply(target, r))
        client = HttpClient(host, port)
        try:
            metrics = await client.request("GET", "/metrics")
        finally:
            await client.close()
    finally:
        if killer is not None:
            killer.cancel()
        cluster.revive_shard("shard-3")
        while not clients.empty():
            await clients.get_nowait().close()
        await server.stop()
    return run, metrics


def _p(samples, q):
    return float(np.percentile(samples, q)) if samples else 0.0


def _rows(run, label: str) -> list:
    status, ledger = run["status"], run["ledger"]
    answered = sum(code in ANSWERS for code in run["codes"]) / max(len(run["codes"]), 1)
    within = _p(status, 99) < STATUS_BUDGET_MS and _p(ledger, 99) < LEDGER_BUDGET_MS
    return [
        label,
        len(status), f"{_p(status, 50):.1f}", f"{_p(status, 99):.1f}",
        len(ledger), f"{_p(ledger, 50):.1f}", f"{_p(ledger, 99):.1f}",
        f"{answered:.1%}", len(run["violations"]), "yes" if within else "NO",
    ]


def _assert_budgets(run, label: str) -> None:
    assert run["violations"] == [], f"{label}: model violations: {run['violations']}"
    status_p99, ledger_p99 = _p(run["status"], 99), _p(run["ledger"], 99)
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
    """Same seed, same arrivals, ops and targets: the open loop is replayable."""
    first, again, other = (schedule(200.0, 2.0, s) for s in (seed, seed, seed + 1))
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not np.array_equal(first[0], other[0])
    times = first[0]
    assert times.size and (times < 2.0).all() and (np.diff(times) >= 0.0).all()
