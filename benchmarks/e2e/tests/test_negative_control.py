"""The traced run puts an injected delay where it belongs, and nowhere else.

Every replica is slowed by 5 ms through the public
``LiveCluster.delay_shard`` hook (all of them, not one: with hedged
quorum reads a single slow replica is simply outvoted).  The transport
hop must grow by about that much; the Bloom probe must not move.
"""

import asyncio

import pytest

import tracing

DELAY = 0.005


def _metrics(shard_delay):
    async def go():
        run = await tracing.traced_run("revoked-reads", 0, requests=300, shard_delay=shard_delay)
        assert run.violations == []
        return tracing.layer_metrics(run, tracing.layer_budget(run), 0.0, 0.0)
    return asyncio.run(go())


def test_delay_shard_lands_in_hop_us_and_nowhere_else():
    base, slowed = _metrics(0.0), _metrics(DELAY)
    rise_us = slowed["service.cluster.hop_us"] - base["service.cluster.hop_us"]
    assert rise_us == pytest.approx(DELAY * 1e6, rel=0.25)
    assert slowed["trace.request_us"] - base["trace.request_us"] > 0.8 * DELAY * 1e6
    for name in ("filters.bloom.probe_us", "ledger.ledger.status_us", "crypto.signatures.sign_us"):
        assert slowed[name] == pytest.approx(base[name], rel=0.35), name
    for name in ("cluster.frontend.rpcs_per_op", "crypto.signatures.signs_per_op"):
        assert slowed[name] == pytest.approx(base[name], rel=0.1), name
    for metrics in (base, slowed):
        assert metrics["trace.accounted_fraction"] == pytest.approx(1.0, abs=0.02)
        assert metrics["ledger.events.appends_per_op"] == 0  # a read-only workload
