"""The error envelope contract, held equal to docs/api.md and driven live.

Satellite 4 of the service PR: the error-kind table in ``docs/api.md``
is parsed here and asserted equal to ``repro.service.errors.ERROR_STATUS``,
then every failure mode is manufactured against a real server — deadline
exceeded, breaker open / quorum dark, token-bucket shed, degraded Bloom
answer, malformed body — and each response is checked against the
*documented* status and ``error.kind``, not just the code's constants.
"""

import asyncio
import re
from pathlib import Path

import pytest

from repro.cluster import ClusterConfig
from repro.service.cluster import RPC_TIMEOUT
from repro.service.errors import ERROR_STATUS
from tests.service.conftest import serve
from tests.service.model import ServiceModel, error_kind

API_MD = Path(__file__).resolve().parents[2] / "docs" / "api.md"
DOC_KIND_RE = re.compile(r"^\|\s*`(\w+)`\s*\|\s*(\d{3})\s*\|")


def documented_kinds():
    kinds = {}
    for line in API_MD.read_text(encoding="utf-8").splitlines():
        match = DOC_KIND_RE.match(line)
        if match:
            kinds[match.group(1)] = int(match.group(2))
    return kinds


DOCS = documented_kinds()


def test_docs_table_matches_error_status():
    """Both directions: every kind documented, nothing extra documented."""
    assert DOCS, f"no error-kind rows parsed from {API_MD}"
    assert DOCS == ERROR_STATUS


def assert_envelope(response, kind):
    """The response carries kind with its *documented* status."""
    assert response.status == DOCS.get(kind), (
        f"kind {kind!r}: docs say {DOCS.get(kind)}, served {response.status}"
    )
    assert error_kind(response) == kind
    return response.json()


def test_malformed_bodies():
    async def inner():
        async with serve() as env:
            # Unparseable JSON.
            r = await env.client.request("POST", "/claims", b"not json{")
            assert_envelope(r, "malformed")
            # Missing body.
            r = await env.client.request("POST", "/claims")
            assert_envelope(r, "malformed")
            # Wrong shape.
            r = await env.client.request("POST", "/status", {"ids": "nope"})
            assert_envelope(r, "malformed")
            # A claim flag that is not a JSON boolean ("false" once read true).
            for flag in ("initially_revoked", "custodial"):
                for value in ("false", 0, 1, None):
                    r = await env.client.request(
                        "POST", "/claims", {"content": "x1", flag: value}
                    )
                    assert_envelope(r, "malformed")
            r = await env.client.request(
                "POST", "/labels", {"id": ServiceModel.claim_id("x1")}
            )
            assert_envelope(r, "not_found")  # no refused claim landed
            # Bad identifier string.
            r = await env.client.request("GET", "/status/garbage")
            assert_envelope(r, "malformed")
            # Unknown revocation action.
            r = await env.client.request(
                "POST", "/revocations",
                {"id": "irs1:irs1:42", "action": "shred"},
            )
            assert_envelope(r, "malformed")

    asyncio.run(inner())


def test_not_found_unknown_serial_and_foreign_ledger():
    async def inner():
        async with serve() as env:
            # A never-claimed id on /status answers 200 "not revoked" via
            # the Bloom short-circuit — correct, not an error.
            r = await env.client.request("GET", "/status/irs1:irs1:12345")
            assert r.status == 200
            assert r.json()["revoked"] is False
            # /labels needs an *authoritative* read, so the quorum's
            # "unknown serial" verdict surfaces as the 404 envelope.
            r = await env.client.request(
                "POST", "/labels", {"id": "irs1:irs1:12345"}
            )
            assert_envelope(r, "not_found")
            # An identifier naming some other ledger.
            r = await env.client.request("GET", "/status/irs1:other:42")
            assert_envelope(r, "not_found")
            # Revoking without a registered owner key.
            r = await env.client.request(
                "POST", "/revocations", {"id": "irs1:irs1:42"}
            )
            assert_envelope(r, "not_found")
            # And an unrouted path.
            r = await env.client.request("GET", "/nope")
            assert_envelope(r, "not_found")

    asyncio.run(inner())


def test_method_not_allowed():
    async def inner():
        async with serve() as env:
            r = await env.client.request("DELETE", "/claims")
            assert_envelope(r, "method_not_allowed")
            r = await env.client.request("PUT", "/healthz")
            assert_envelope(r, "method_not_allowed")

    asyncio.run(inner())


def test_too_large_batch():
    async def inner():
        async with serve() as env:
            ids = ["irs1:irs1:42"] * 1025
            r = await env.client.request("POST", "/status", {"ids": ids})
            assert_envelope(r, "too_large")

    asyncio.run(inner())


def test_shed_strict_is_429():
    """Token-bucket refusal with degraded reads off is the 429 envelope."""

    async def inner():
        config = ClusterConfig.full(
            shed_rate=0.0001, shed_burst=1, degraded_reads=False
        )
        # Revoked ids: the Bloom filter cannot short-circuit them, so the
        # reads reach the token bucket instead of answering "not revoked".
        async with serve(config=config, populate=4, revoked_fraction=1.0) as env:
            target = env.population.identifiers[0].to_string()
            statuses = []
            for _ in range(3):
                r = await env.client.request("GET", f"/status/{target}")
                statuses.append(r)
            shed = [r for r in statuses if r.status == DOCS["shed"]]
            assert shed, [r.status for r in statuses]
            assert_envelope(shed[0], "shed")

    asyncio.run(inner())


def test_shed_degraded_is_203_with_cause():
    """With degraded reads on, a shed request still answers, as 203."""

    async def inner():
        config = ClusterConfig.full(shed_rate=0.0001, shed_burst=1)
        async with serve(config=config, populate=4, revoked_fraction=1.0) as env:
            target = env.population.identifiers[0].to_string()
            answers = []
            for _ in range(3):
                r = await env.client.request("GET", f"/status/{target}")
                answers.append(r)
            degraded = [r for r in answers if r.status == DOCS["degraded"]]
            assert degraded, [r.status for r in answers]
            body = assert_envelope(degraded[0], "degraded")
            # Fail-closed: the revoked id still reads revoked.
            assert body["revoked"] is True
            assert body["source"] == "degraded"
            assert "admission refused" in body["error"]["detail"]

    asyncio.run(inner())


def test_deadline_strict_read_is_504():
    """Slow replicas + a tight budget + degraded reads off: 504."""

    async def inner():
        config = ClusterConfig.full(degraded_reads=False)
        # Revoked ids, so the Bloom filter cannot answer and the read
        # must wait on the (delayed) quorum.
        async with serve(config=config, populate=4, revoked_fraction=1.0) as env:
            for shard_id in env.cluster.shards:
                env.cluster.delay_shard(shard_id, 0.5)
            target = env.population.identifiers[0].to_string()
            r = await env.client.request(
                "GET", f"/status/{target}",
                headers={"X-Deadline-Ms": "30"},
            )
            assert_envelope(r, "deadline")

    asyncio.run(inner())


def test_deadline_header_reaches_the_rpc_timer():
    """X-Deadline-Ms shortens the shard RPC timeout; without it, rpc_timeout."""
    rpc_timeout = re.compile(r"rpc timeout after ([0-9.]+)s")

    async def inner():
        async with serve(populate=4, revoked_fraction=1.0) as env:
            timeouts = []
            invoke = env.cluster.transport.invoke

            def spy(shard_id, method, payload, callback, timeout=None):
                def recorded(reply):
                    timeouts.append(float(rpc_timeout.match(reply.error).group(1)))
                    callback(reply)

                invoke(shard_id, method, payload, recorded, timeout=timeout)

            env.cluster.transport.invoke = spy
            for shard_id in env.cluster.shards:
                env.cluster.delay_shard(shard_id, 0.5)
            first, second = (
                i.to_string() for i in env.population.identifiers[:2]
            )

            await env.client.request(
                "GET", f"/status/{first}", headers={"X-Deadline-Ms": "30"}
            )
            await asyncio.sleep(0.05)
            assert timeouts and max(timeouts) <= 0.030

            del timeouts[:]
            await env.client.request("GET", f"/status/{second}")
            assert timeouts[0] == RPC_TIMEOUT
            assert max(timeouts) <= RPC_TIMEOUT

    asyncio.run(inner())


@pytest.mark.parametrize("header", ["1e12", "250"])
def test_a_deadline_header_never_outlasts_the_servers_budget(header):
    """A read's backstop timer is armed for at most ``request_deadline``.

    500 revoked reads each arm one; 0.3 s later, past the server's
    0.25 s, none may be left in the loop's heap holding its read,
    whatever budget the client asked for.
    """
    from repro.cluster.reads import StatusRead

    async def inner():
        async with serve(populate=500, revoked_fraction=1.0, with_obs=False) as env:
            for identifier in env.population.identifiers:
                r = await env.client.request(
                    "GET", f"/status/{identifier.to_string()}",
                    headers={"X-Deadline-Ms": header},
                )
                assert r.status == 200 and r.json()["revoked"]
            await asyncio.sleep(0.3)
            backstops = [
                handle for handle in asyncio.get_running_loop()._scheduled
                if not handle.cancelled()
                and isinstance(getattr(handle._callback, "__self__", None), StatusRead)
            ]
            assert backstops == []

    asyncio.run(inner())


def test_deadline_degraded_read_answers_203():
    """Same expiry with degraded reads on: a 203 Bloom-backed answer."""

    async def inner():
        async with serve(populate=4, revoked_fraction=1.0) as env:
            for shard_id in env.cluster.shards:
                env.cluster.delay_shard(shard_id, 0.5)
            target = env.population.identifiers[0].to_string()
            r = await env.client.request(
                "GET", f"/status/{target}",
                headers={"X-Deadline-Ms": "30"},
            )
            body = assert_envelope(r, "degraded")
            assert body["revoked"] is True
            assert "budget exhausted" in body["error"]["detail"]

    asyncio.run(inner())


def test_deadline_on_write_is_504():
    async def inner():
        async with serve() as env:
            r = await env.client.request(
                "POST", "/claims", {"content": "slow-claim"}
            )
            claimed = r.json()["id"]
            assert r.status == 201
            for shard_id in env.cluster.shards:
                env.cluster.delay_shard(shard_id, 0.5)
            r = await env.client.request(
                "POST", "/revocations", {"id": claimed},
                headers={"X-Deadline-Ms": "30"},
            )
            assert_envelope(r, "deadline")

    asyncio.run(inner())


def test_unavailable_when_quorum_dark_and_strict():
    """All shards down, degraded reads off, no backstop race: 503."""

    async def inner():
        config = ClusterConfig.full(
            degraded_reads=False, max_retries=0, request_deadline=5.0
        )
        async with serve(config=config, populate=4, revoked_fraction=1.0) as env:
            env.cluster.transport.timeout = 0.02
            for shard_id in env.cluster.shards:
                env.cluster.kill_shard(shard_id)
            target = env.population.identifiers[0].to_string()
            r = await env.client.request("GET", f"/status/{target}")
            assert_envelope(r, "unavailable")

    asyncio.run(inner())


def test_breaker_open_still_answers_degraded():
    """Dark quorum trips the breakers; answers stay 203 and healthz shows it."""

    async def inner():
        config = ClusterConfig.full(
            breaker_threshold=2, max_retries=0, request_deadline=0.2
        )
        async with serve(config=config, populate=4, revoked_fraction=1.0) as env:
            env.cluster.transport.timeout = 0.02
            for shard_id in env.cluster.shards:
                env.cluster.kill_shard(shard_id)
            target = env.population.identifiers[0].to_string()
            for _ in range(6):
                r = await env.client.request("GET", f"/status/{target}")
                body = assert_envelope(r, "degraded")
                assert body["revoked"] is True
            health = (await env.client.request("GET", "/healthz")).json()
            assert health["breakers_open"], health
            assert health["ok"] is False

    asyncio.run(inner())


def test_internal_bug_is_500_envelope():
    async def inner():
        async with serve() as env:
            def boom(request, params):
                raise RuntimeError("injected handler bug")

            async def boom_async(request, params):
                return boom(request, params)

            env.app.handle_healthz = boom_async
            r = await env.client.request("GET", "/healthz")
            body = assert_envelope(r, "internal")
            assert "injected handler bug" in body["error"]["detail"]

    asyncio.run(inner())


def test_every_documented_kind_is_exercised():
    """Paranoia: the suite above covers the whole documented table."""
    source = Path(__file__).read_text(encoding="utf-8")
    for kind in DOCS:
        assert f'"{kind}"' in source, f"no live test drives kind {kind!r}"
