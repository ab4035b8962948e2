"""The live transport and read path arm only timers that may fire.

A replica RPC to a live, undelayed shard is answered on the next loop
tick and arms no timeout.  A request that can be lost — its shard down
when it is sent or when it arrives, or delayed past its budget — gets
exactly one ``rpc timeout after ...`` reply at ``invoke`` time plus
its budget.  A read's deadline backstop is armed once per read and
cancelled by the time the read's answer is delivered, so an answered
read leaves nothing behind in the loop's timer heap.
"""

import asyncio
import time
from functools import partial

import pytest

from repro.cluster.reads import StatusRead
from repro.cluster.replication import ShardReply
from repro.service.cluster import AsyncioShardTransport, LiveCluster

BUDGET = 0.1
# The first loop iteration after ``invoke`` stalls this long, so a
# timer counted from delivery instead of from ``invoke`` would answer
# ``STALL`` late; ``SLACK`` is one loop iteration on a loaded host.
STALL = 0.06
SLACK = 0.03


def _transport(loop, served):
    def status(payload):
        served.append(payload)
        return ["ok"]

    transport = AsyncioShardTransport(loop, {"s1": {"status": status}})
    transport.timeout = BUDGET
    return transport


async def _invoke_and_collect(transport, before_loop_runs=None):
    """Invoke once; every reply with the loop time it arrived at."""
    loop = asyncio.get_running_loop()
    replies = []
    first = loop.create_future()

    def callback(reply: ShardReply) -> None:
        replies.append((loop.time(), reply))
        if not first.done():
            first.set_result(None)

    loop.call_soon(time.sleep, STALL)
    invoked_at = loop.time()
    transport.invoke("s1", "status", {"serials": [1]}, callback)
    if before_loop_runs is not None:
        before_loop_runs()
    await asyncio.wait_for(first, 5.0)
    await asyncio.sleep(2 * BUDGET)  # room for a second, wrong reply
    return invoked_at, replies


@pytest.mark.parametrize(
    "fault", ["killed before invoke", "killed in flight", "delayed"]
)
def test_a_lost_request_times_out_once_at_invoke_plus_budget(fault):
    async def inner():
        loop = asyncio.get_running_loop()
        served = []
        transport = _transport(loop, served)
        kill = None
        if fault == "killed before invoke":
            transport.kill("s1")
        elif fault == "killed in flight":
            kill = partial(transport.kill, "s1")
        else:
            transport.delays["s1"] = 3 * BUDGET
        invoked_at, replies = await _invoke_and_collect(transport, kill)
        assert [reply.error for _, reply in replies] == [
            f"rpc timeout after {BUDGET:.3f}s"
        ]
        [(answered_at, _)] = replies
        due = invoked_at + BUDGET
        assert due - 1e-3 <= answered_at <= due + SLACK
        if fault == "delayed":
            await asyncio.sleep(3 * BUDGET)
        assert served == []  # a lost or late request is never applied

    asyncio.run(inner())


def test_a_healthy_rpc_arms_no_timer():
    async def inner():
        loop = asyncio.get_running_loop()
        served = []
        transport = _transport(loop, served)
        armed = len(loop._scheduled)
        replies = []
        answered = loop.create_future()

        def callback(reply):
            replies.append(reply)
            answered.set_result(len(loop._scheduled))

        transport.invoke("s1", "status", {"serials": [1]}, callback)
        assert len(loop._scheduled) == armed
        assert await answered == armed
        assert [reply.value for reply in replies] == [["ok"]]
        assert len(served) == 1

    asyncio.run(inner())


def test_each_read_arms_one_backstop_and_cancels_it_when_answered():
    async def inner():
        loop = asyncio.get_running_loop()
        cluster = LiveCluster(4, seed=3)
        population = cluster.seed_population(24, revoked_fraction=1.0)
        backstops = {}  # serial -> the handle of that read's backstop
        call_later = loop.call_later

        def spy(delay, callback, *args):
            handle = call_later(delay, callback, *args)
            read = getattr(callback, "__self__", None)
            if isinstance(read, StatusRead):
                assert read.identifier.serial not in backstops
                backstops[read.identifier.serial] = handle
            return handle

        loop.call_later = spy
        cancelled_on_delivery = []
        futures = []
        for identifier in population.identifiers:
            future = loop.create_future()

            def deliver(answer, serial=identifier.serial, future=future):
                cancelled_on_delivery.append(backstops[serial].cancelled())
                future.set_result(answer)

            cluster.frontend.status_async(identifier, deliver, proof=False)
            futures.append(future)
        answers = await asyncio.wait_for(asyncio.gather(*futures), 5.0)
        del loop.call_later
        assert all(a.ok and a.revoked and a.source == "shard" for a in answers)
        assert len(backstops) == len(population.identifiers)
        assert cancelled_on_delivery == [True] * len(population.identifiers)

    asyncio.run(inner())
