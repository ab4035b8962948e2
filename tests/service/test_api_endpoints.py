"""End-to-end API tests over a real socket (one event loop per test)."""

import asyncio
import hashlib
import json

from repro.cluster import ClusterConfig
from repro.filters.bloom import BloomFilter
from tests.service.conftest import serve
from tests.service.model import LABEL_KEYS, STATUS_KEYS, error_kind


def test_claim_status_label_revoke_flow():
    async def inner():
        async with serve() as env:
            # Claim.
            r = await env.client.request(
                "POST", "/claims", {"content": "photo-bytes"}
            )
            assert r.status == 201
            body = r.json()
            claimed = body["id"]
            assert claimed.startswith("irs1:")
            assert body["error"] is None

            # Fresh claim reads back not revoked (filter short-circuit).
            r = await env.client.request("GET", f"/status/{claimed}")
            assert r.status == 200
            status = r.json()
            assert status["revoked"] is False
            assert status["degraded"] is False
            assert status["error"] is None

            # Labels hand out the watermark channels.
            r = await env.client.request("POST", "/labels", {"id": claimed})
            assert r.status == 200
            label = r.json()
            assert label["metadata"] == claimed
            assert bytes.fromhex(label["watermark_hex"])

            # Revoke, then the authoritative read must flip.
            r = await env.client.request(
                "POST", "/revocations", {"id": claimed}
            )
            assert r.status == 200
            assert r.json()["epoch"] >= 1
            r = await env.client.request("GET", f"/status/{claimed}")
            assert r.status == 200
            after = r.json()
            assert after["revoked"] is True
            assert after["state"] == "revoked"

            # The acknowledged revocation shows up in the delta feed.
            r = await env.client.request("GET", "/deltas?since=0")
            assert r.status == 200
            deltas = r.json()
            assert deltas["head"] == 1
            assert deltas["entries"][0]["id"] == claimed
            assert deltas["entries"][0]["action"] == "revoke"
            r = await env.client.request("GET", "/deltas?since=1")
            assert r.json()["entries"] == []

            # Unrevoke is the same endpoint with action.
            r = await env.client.request(
                "POST", "/revocations", {"id": claimed, "action": "unrevoke"}
            )
            assert r.status == 200
            r = await env.client.request("GET", f"/status/{claimed}")
            answer = r.json()
            assert answer["revoked"] is False

    asyncio.run(inner())


def test_deltas_at_and_beyond_head_are_empty_pages():
    async def inner():
        async with serve(populate=3) as env:
            ids = [i.to_string() for i in env.population.identifiers]
            for claimed in ids:
                r = await env.client.request(
                    "POST", "/revocations", {"id": claimed}
                )
                assert r.status == 200
            r = await env.client.request("GET", "/deltas?since=1")
            page = r.json()
            assert [e["seq"] for e in page["entries"]] == [2, 3]
            assert [e["id"] for e in page["entries"]] == ids[1:]
            assert page["head"] == 3 and page["truncated"] is False
            for since in (3, 4, 10**9):
                r = await env.client.request("GET", f"/deltas?since={since}")
                assert r.status == 200
                page = r.json()
                assert page["entries"] == [] and page["truncated"] is False
                assert page["head"] == 3 and page["since"] == since

    asyncio.run(inner())


def test_batch_status_preserves_order():
    async def inner():
        async with serve(
            config=ClusterConfig.full(2), num_shards=3,
            populate=8, revoked_fraction=0.5,
        ) as env:
            population = env.population
            ids = [i.to_string() for i in population.identifiers]
            r = await env.client.request("POST", "/status", {"ids": ids})
            assert r.status == 200
            results = r.json()["results"]
            assert [item["id"] for item in results] == ids
            for index, item in enumerate(results):
                assert item["revoked"] == population.revoked(index)

    asyncio.run(inner())


def test_a_page_view_constructs_a_read_only_for_its_filter_hits(monkeypatch):
    from repro.cluster.reads import StatusRead

    reads = []
    original = StatusRead.__init__

    def counted(self, frontend, identifier, *args, **kwargs):
        reads.append(identifier.to_string())
        original(self, frontend, identifier, *args, **kwargs)

    monkeypatch.setattr(StatusRead, "__init__", counted)

    async def inner():
        async with serve(populate=64, revoked_fraction=0.1) as env:
            population = env.population
            ids = [i.to_string() for i in population.identifiers]
            r = await env.client.request("POST", "/status", {"ids": ids})
            assert r.status == 200
            page, hits = list(reads), []
            expected = []
            for index, claimed in enumerate(ids):
                if population.revoked(index):
                    # A hit is a single read: what GET /status/{id} serves
                    # (whichever replica completed the quorum).
                    hits.append(claimed)
                    one = await env.client.request("GET", f"/status/{claimed}")
                    served = r.json()["results"][index]["answered_by"]
                    assert served in env.cluster.placement(
                        population.identifiers[index].serial
                    )
                    expected.append(dict(one.json(), answered_by=served))
                    assert one.json()["source"] == "shard"
                else:
                    expected.append({
                        "id": claimed, "revoked": False, "source": "filter",
                        "state": None, "epoch": -1, "answered_by": None,
                        "degraded": False, "error": None,
                    })
            assert page == hits and 0 < len(hits) < 10
            assert r.body == json.dumps(
                {"results": expected, "error": None}
            ).encode("utf-8")
            # The bytes this population's page view had before a batch
            # answered its misses together.
            assert hashlib.sha256(r.body).hexdigest() == (
                "8a65444bf444a7aa7108745a7093747a70595b45ae40e4f8ea11a157a0740d0e"
            )
            metrics = env.obs.metrics
            assert metrics.value("frontend_queries_total") == 64 + len(hits)
            assert metrics.value("frontend_filter_short_circuits_total") == 57
            assert metrics.value("frontend_answers_total", source="filter") == 57
            assert metrics.get("frontend_status_latency_seconds").count == (
                64 + len(hits)
            )

    asyncio.run(inner())


def test_bloom_etag_and_304_refresh():
    async def inner():
        async with serve(populate=16, revoked_fraction=0.5) as env:
            r = await env.client.request("GET", "/bloom")
            assert r.status == 200
            etag = r.headers["etag"]
            assert int(r.headers["x-filter-keys"]) >= 1
            assert len(r.body) > 0
            assert r.headers["content-type"] == "application/octet-stream"

            # The payload is the filter of the revoked ids, bit for bit
            # what inserting their keys one at a time builds.
            revoked = [
                identifier.to_compact()
                for index, identifier in enumerate(env.population.identifiers)
                if env.population.revoked(index)
            ]
            assert int(r.headers["x-filter-keys"]) == len(revoked)
            one_by_one = BloomFilter(
                int(r.headers["x-filter-bits"]), int(r.headers["x-filter-hashes"])
            )
            for key in revoked:
                one_by_one.add(key)
            assert r.body == one_by_one.to_bytes()

            # Unchanged chain head -> 304, no body.
            r = await env.client.request(
                "GET", "/bloom", headers={"If-None-Match": etag}
            )
            assert r.status == 304
            assert r.body == b""

            # A mutation advances the chain head and invalidates the tag.
            target = None
            for index, identifier in enumerate(env.population.identifiers):
                if not env.population.revoked(index):
                    target = identifier.to_string()
                    break
            assert target is not None
            env.app._owners[env.population.identifiers[0].serial]  # registered
            r = await env.client.request("POST", "/revocations", {"id": target})
            assert r.status == 200
            r = await env.client.request(
                "GET", "/bloom", headers={"If-None-Match": etag}
            )
            assert r.status == 200
            assert r.headers["etag"] != etag

    asyncio.run(inner())


def test_healthz_and_metrics():
    async def inner():
        async with serve(populate=4) as env:
            r = await env.client.request("GET", "/healthz")
            assert r.status == 200
            health = r.json()
            assert health["ok"] is True
            assert health["shards"] == 4
            assert health["shards_down"] == []
            assert health["breakers_open"] == []

            r = await env.client.request("GET", f"/status/{env.population.identifiers[0].to_string()}")
            assert r.status == 200

            r = await env.client.request("GET", "/metrics")
            assert r.status == 200
            text = r.body.decode("utf-8")
            assert "service_requests_total" in text
            assert "service_request_latency_seconds" in text
            assert 'route="/status/{id}"' in text

    asyncio.run(inner())


def test_healthz_reports_downed_shards():
    async def inner():
        async with serve() as env:
            env.cluster.kill_shard("shard-1")
            r = await env.client.request("GET", "/healthz")
            assert r.json()["shards_down"] == ["shard-1"]

    asyncio.run(inner())


def test_deadline_header_validation():
    async def inner():
        async with serve() as env:
            for value in ("abc", "0", "-5", "nan", "inf", "1e999"):
                r = await env.client.request(
                    "GET", "/status/irs1:irs1:42",
                    headers={"X-Deadline-Ms": value},
                )
                assert (r.status, error_kind(r)) == (400, "malformed")

    asyncio.run(inner())


def test_keep_alive_reuses_one_connection():
    async def inner():
        async with serve(with_obs=True) as env:
            for _ in range(5):
                r = await env.client.request("GET", "/healthz")
                assert r.status == 200
            connections = env.obs.counter("service_connections_total").value
            assert connections == 1

    asyncio.run(inner())


# -- verdict reads: the service signs nothing it does not serve ------------------


def _assert_authoritative(env, identifier, body):
    assert list(body) == STATUS_KEYS  # the wire format, key for key
    assert body["id"] == identifier.to_string()
    assert (body["revoked"], body["state"], body["epoch"]) == (True, "revoked", 1)
    assert body["source"] == "shard" and body["degraded"] is False
    assert body["answered_by"] in env.cluster.placement(identifier.serial)
    assert body["error"] is None


def test_reads_of_revoked_ids_cost_no_signature(monkeypatch):
    from repro.crypto.signatures import KeyPair

    signatures = []
    for method in ("sign", "sign_struct"):
        original = getattr(KeyPair, method)

        def counted(self, *args, _original=original, **kwargs):
            signatures.append(self)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(KeyPair, method, counted)

    async def inner():
        async with serve(populate=8, revoked_fraction=1.0) as env:
            identifiers = env.population.identifiers
            ids = [i.to_string() for i in identifiers]
            del signatures[:]  # set-up (TSA token, population) may sign
            for identifier in identifiers:
                r = await env.client.request(
                    "GET", f"/status/{identifier.to_string()}"
                )
                assert r.status == 200
                _assert_authoritative(env, identifier, r.json())
            r = await env.client.request("POST", "/status", {"ids": ids})
            assert r.status == 200
            batch = r.json()
            assert list(batch) == ["results", "error"] and batch["error"] is None
            for identifier, body in zip(identifiers, batch["results"]):
                _assert_authoritative(env, identifier, body)
            r = await env.client.request("POST", "/labels", {"id": ids[0]})
            assert r.status == 200
            label = r.json()
            assert list(label) == LABEL_KEYS and label["revoked"] is True

            assert signatures == []
            assert sum(
                shard.ledger.status_queries_served
                for shard in env.cluster.shards.values()
            ) == 0
            metrics = env.obs.metrics
            assert metrics.value("frontend_queries_total") == 17
            assert metrics.value("frontend_signed_reads_total") == 0
            assert metrics.value("frontend_proof_fetches_total") == 0

    asyncio.run(inner())


def test_a_replica_killed_mid_run_costs_no_read_its_200():
    async def inner():
        async with serve(populate=16, revoked_fraction=1.0) as env:
            identifiers = env.population.identifiers
            ids = [i.to_string() for i in identifiers]
            for claimed in ids[:8]:
                r = await env.client.request("GET", f"/status/{claimed}")
                assert r.status == 200
            # For some ids the dead shard is first in ring order: the
            # replica a proof read would have named as signer.
            env.cluster.kill_shard("shard-0")
            assert any(
                env.cluster.placement(i.serial)[0] == "shard-0"
                for i in identifiers
            )
            for identifier in identifiers:
                r = await env.client.request(
                    "GET", f"/status/{identifier.to_string()}"
                )
                assert r.status == 200
                _assert_authoritative(env, identifier, r.json())
                assert r.json()["answered_by"] != "shard-0"
            r = await env.client.request("POST", "/status", {"ids": ids})
            assert r.status == 200
            for identifier, body in zip(identifiers, r.json()["results"]):
                _assert_authoritative(env, identifier, body)
            r = await env.client.request("POST", "/labels", {"id": ids[-1]})
            assert r.status == 200 and r.json()["revoked"] is True
            metrics = env.obs.metrics
            assert metrics.value("frontend_proof_fetches_total") == 0
            assert metrics.value("frontend_retries_total") == 0
            assert metrics.value("frontend_degraded_answers_total") == 0

    asyncio.run(inner())
