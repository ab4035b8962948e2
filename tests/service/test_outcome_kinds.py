"""Each failure reaches the wire under its own kind, decided where it is known.

A read's not-found verdict is the frontend's ``ClusterAnswer.cause``, a
claim collision is the cluster's ``CLAIM_COLLISION``, and a revocation
that got past the owner-key lookup can only fail ``unavailable``.
Reads carry one timer, the frontend's deadline backstop, so a spent
budget is answered id by id, never as a whole-batch 504.  A request the
parser refuses is counted like any other response.
"""

import asyncio

import pytest

from repro.cluster import ClusterConfig
from repro.core.identifiers import PhotoIdentifier
from tests.service.conftest import serve
from tests.service.model import error_kind


def test_labels_are_handed_out_only_on_an_authoritative_read():
    """Quorum dark, degraded reads on: the read's own 203, no label fields."""

    async def inner():
        async with serve() as env:
            env.cluster.transport.timeout = 0.02
            for shard_id in env.cluster.shards:
                env.cluster.kill_shard(shard_id)
            r = await env.client.request(
                "POST", "/labels", {"id": "irs1:irs1:12345"}
            )
            assert (r.status, error_kind(r)) == (203, "degraded")
            body = r.json()
            assert body["source"] == "degraded"
            assert "metadata" not in body and "watermark_hex" not in body

    asyncio.run(inner())


def test_a_revocation_whose_followers_lost_the_record_is_unavailable():
    """The coordinator verified and flipped; the followers cannot follow."""

    async def inner():
        async with serve() as env:
            r = await env.client.request(
                "POST", "/claims", {"content": "followers-wiped"}
            )
            assert r.status == 201
            claimed = r.json()["id"]
            serial = PhotoIdentifier.from_string(claimed).serial
            coordinator, *followers = env.cluster.placement(serial)
            for shard_id in followers:
                env.cluster.shards[shard_id].ledger.store.wipe()
            r = await env.client.request(
                "POST", "/revocations", {"id": claimed}
            )
            assert (r.status, error_kind(r)) == (503, "unavailable")
            record = env.cluster.shards[coordinator].ledger.store.get(serial)
            assert record.is_revoked  # the flip itself landed

    asyncio.run(inner())


def test_a_claim_collision_is_malformed(monkeypatch):
    monkeypatch.setattr(
        "repro.cluster.frontend.content_serial", lambda content_hash: 42
    )

    async def inner():
        async with serve() as env:
            r = await env.client.request("POST", "/claims", {"content": "a"})
            assert r.status == 201 and r.json()["id"] == "irs1:irs1:42"
            r = await env.client.request("POST", "/claims", {"content": "b"})
            assert (r.status, error_kind(r)) == (400, "malformed")

    asyncio.run(inner())


@pytest.mark.parametrize("strict", [False, True])
def test_a_spent_batch_budget_is_answered_id_by_id(strict):
    """Every id gets the frontend's own verdict; the batch itself is a 200."""

    async def inner():
        config = ClusterConfig.full(degraded_reads=not strict)
        async with serve(config=config, populate=8, revoked_fraction=0.5) as env:
            ids = [i.to_string() for i in env.population.identifiers]
            r = await env.client.request(
                "POST", "/status", {"ids": ids},
                headers={"X-Deadline-Ms": "0.001"},
            )
            assert r.status == 200
            forms = set()
            for result in r.json()["results"]:
                if result["source"] == "filter":
                    assert result["error"] is None and not result["revoked"]
                    forms.add("filter")
                else:
                    assert result["revoked"] is True  # fail-closed either way
                    forms.add(result["error"]["kind"])
            assert forms == {"filter", "deadline" if strict else "degraded"}

    asyncio.run(inner())


def test_a_parser_refusal_is_counted_once_like_any_response():
    async def inner():
        async with serve() as env:
            reader, writer = await asyncio.open_connection(env.host, env.port)
            writer.write(
                b"POST /claims HTTP/1.1\r\ncontent-length: +5\r\n\r\n12345"
            )
            answer = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            assert answer.startswith(b"HTTP/1.1 400 ")
            metrics = env.obs.metrics
            assert metrics.value("service_responses_total", code="400") == 1
            assert metrics.value("service_errors_total", kind="malformed") == 1
            assert metrics.total("service_responses_total") == 1

    asyncio.run(inner())
