"""Regression tests for the handle_bloom event-loop fix.

The Bloom export scans every record — before this fix it ran
synchronously inside the async handler, freezing every in-flight
request for the duration.  No blocking-API lint can see that stall:
the scan is plain CPU work, not a blocking call.  These tests pin the
repaired behavior instead: the scan runs off-loop, is single-flight
per chain head, and honors the request deadline.
"""

import asyncio
import threading
import time

from repro.service.protocol import HttpRequest
from tests.service.conftest import serve


def _bloom_request(headers=None):
    return HttpRequest(
        method="GET",
        target="/bloom",
        path="/bloom",
        query={},
        headers=headers or {},
        body=b"",
    )


def test_bloom_export_runs_off_loop_and_single_flight():
    async def inner():
        async with serve(populate=8, revoked_fraction=0.5) as env:
            loop_thread = threading.get_ident()
            export_threads = []
            real_export = env.cluster.export_bloom

            def counting_export():
                export_threads.append(threading.get_ident())
                return real_export()

            env.cluster.export_bloom = counting_export
            results = await asyncio.gather(
                *(env.app.handle_bloom(_bloom_request(), {}) for _ in range(4))
            )
            # One scan served all four concurrent requests...
            assert len(export_threads) == 1
            # ...and it did not run on the event-loop thread.
            assert export_threads[0] != loop_thread
            bodies = {body for _, body, _ in results}
            assert len(bodies) == 1
            assert all(status == 200 for status, _, _ in results)

    asyncio.run(inner())


def test_event_loop_stays_responsive_during_bloom_export():
    async def inner():
        async with serve(populate=8) as env:
            started = threading.Event()
            release = threading.Event()
            real_export = env.cluster.export_bloom

            def stalled_export():
                started.set()
                assert release.wait(timeout=10.0)
                return real_export()

            env.cluster.export_bloom = stalled_export
            bloom = asyncio.ensure_future(
                env.app.handle_bloom(_bloom_request(), {})
            )
            await asyncio.get_running_loop().run_in_executor(
                None, started.wait, 10.0
            )
            # The export is parked mid-scan; before the fix this
            # request could not complete until it finished.
            r = await env.client.request("GET", "/healthz")
            assert r.status == 200
            assert not bloom.done()
            release.set()
            status, _, _ = await bloom
            assert status == 200

    asyncio.run(inner())


def test_bloom_deadline_maps_to_504_envelope():
    async def inner():
        async with serve(populate=8) as env:
            real_export = env.cluster.export_bloom

            def slow_export():
                time.sleep(0.1)
                return real_export()

            env.cluster.export_bloom = slow_export
            r = await env.client.request(
                "GET", "/bloom", headers={"X-Deadline-Ms": "1"}
            )
            assert r.status == 504
            assert r.json()["error"]["kind"] == "deadline"
            # With the budget gone, the next unbounded request still
            # fills the cache and serves normally.
            r = await env.client.request("GET", "/bloom")
            assert r.status == 200
            assert len(r.body) > 0

    asyncio.run(inner())
