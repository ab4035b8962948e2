"""The asyncio adapter: the cluster the HTTP service fronts.

``LiveCluster`` is the :class:`~repro.cluster.assembly.Cluster`
assembly whose injected clock and scheduler are the asyncio event
loop's own ``loop.time`` / ``loop.call_later`` — which is why none of
the frontend's resilience machinery (deadline backstop, breakers,
shedding, degraded Bloom reads) needed changing to serve real sockets.
Only what is asyncio-specific lives here: the transport, the
slow-replica hook and the ``/bloom`` export.

:class:`AsyncioShardTransport` is the event-loop twin of the netsim
RPC layer: every ``invoke`` is delivered on a later loop tick (never
synchronously — callers rely on callback-after-return), with per-shard
``down`` / ``delay`` fault hooks so the error-envelope tests can
produce breaker-open and deadline conditions on demand.  A request
that can be lost gets a real timeout timer, due at ``invoke`` time
plus its budget: armed at ``invoke`` for a delayed shard, and at
delivery for one found down.  A healthy, undelayed RPC is answered on
the next tick and arms none, so the loop's timer heap holds only
timers that may fire.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.cluster.assembly import Cluster, LearningBloom
from repro.cluster.frontend import ClusterConfig
from repro.cluster.replication import ShardReply, clamp_rpc_timeout
from repro.filters.bloom import BloomFilter

__all__ = [
    "AsyncioShardTransport",
    "LiveCluster",
    "LearningBloom",
]

# Seconds a replica has to answer one RPC; a request's remaining budget
# may shorten it (``clamp_rpc_timeout``), never lengthen it.
RPC_TIMEOUT = 0.1
# Revoked identifiers the frontend's fallback filter is sized for.
FILTER_CAPACITY = 8192


class AsyncioShardTransport:
    """ShardTransport over the event loop: async delivery, timeouts when lost."""

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        handlers: Dict[str, Dict[str, Callable]],
    ):
        self._loop = loop
        self._handlers = handlers
        self.timeout = RPC_TIMEOUT
        self.down: Set[str] = set()  # crashed: requests vanish, timers fire
        self.delays: Dict[str, float] = {}  # injected per-shard service delay

    def shard_ids(self) -> List[str]:
        return sorted(self._handlers)

    def kill(self, shard_id: str) -> None:
        self.down.add(shard_id)

    def revive(self, shard_id: str) -> None:
        self.down.discard(shard_id)

    def invoke(
        self,
        shard_id: str,
        method: str,
        payload,
        callback: Callable[[ShardReply], None],
        timeout: Optional[float] = None,
    ) -> None:
        handlers = self._handlers.get(shard_id)
        if handlers is None or method not in (handlers or {}):
            self._loop.call_soon(
                callback,
                ShardReply(shard_id, error=f"unknown shard or method {method}"),
            )
            return
        budget = clamp_rpc_timeout(self.timeout, timeout)
        due = self._loop.time() + budget
        timer = None
        done = False

        def _on_timeout() -> None:
            nonlocal done
            if done:
                return
            done = True
            callback(ShardReply(shard_id, error=f"rpc timeout after {budget:.3f}s"))

        def _deliver() -> None:
            nonlocal done, timer
            if done:
                return
            if shard_id in self.down:
                # Lost in flight: time out when a timer armed at invoke would.
                if timer is None:
                    timer = self._loop.call_at(due, _on_timeout)
                return
            done = True
            if timer is not None:
                timer.cancel()
            try:
                reply = ShardReply(shard_id, value=handlers[method](payload))
            except Exception as exc:  # shard errors are replies, not raises
                reply = ShardReply(shard_id, error=str(exc))
            callback(reply)

        delay = self.delays.get(shard_id, 0.0)
        if delay > 0.0:
            # Only a slow replica's reply can lose the race to its budget.
            timer = self._loop.call_at(due, _on_timeout)
            self._loop.call_later(delay, _deliver)
        else:
            self._loop.call_soon(_deliver)


class LiveCluster(Cluster):
    """Shards + frontend wired to the running event loop.

    Must be constructed inside a running loop (the server's); the
    frontend's scheduler is ``loop.call_later``, so backoff, deadline
    backstops and hint replay ride real time and a batch leaves on the
    loop iteration after the one that filled it.  The default
    ``config`` is :meth:`ClusterConfig.full`, E19's policy, at
    replication ``min(3, num_shards)``.
    """

    def __init__(
        self,
        num_shards: int = 4,
        config: Optional[ClusterConfig] = None,
        seed: int = 0,
        obs=None,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ):
        self._loop = loop or asyncio.get_running_loop()
        super().__init__(
            num_shards,
            clock=self._loop.time,
            scheduler=self._schedule,
            transport_factory=lambda shards: AsyncioShardTransport(
                self._loop,
                {sid: shard.rpc_handlers() for sid, shard in shards.items()},
            ),
            config=config or ClusterConfig.full(min(3, num_shards)),
            seed=seed,
            cluster_id="irs1",
            filterset=LearningBloom(FILTER_CAPACITY),
            obs=obs,
        )

    def _schedule(self, delay: float, fn: Callable[[], None]) -> asyncio.Handle:
        if delay > 0.0:
            return self._loop.call_later(delay, fn)
        # The batcher's end-of-tick marker: the next loop iteration,
        # behind everything this one admits, and no timer-heap entry.
        return self._loop.call_soon(fn)

    def delay_shard(self, shard_id: str, seconds: float) -> None:
        """Make one replica slow without killing it (deadline tests)."""
        if seconds <= 0.0:
            self.transport.delays.pop(shard_id, None)
        else:
            self.transport.delays[shard_id] = seconds

    def export_bloom(self) -> Tuple[bytes, Dict[str, str]]:
        """Build the /bloom payload: filter bytes + reconstruction params."""
        keys = self.revoked_compact_keys()
        bloom = BloomFilter.for_capacity(max(len(keys), 1024), 0.01)
        bloom.add_many(keys)
        params = {
            "x-filter-bits": str(bloom.nbits),
            "x-filter-hashes": str(bloom.num_hashes),
            "x-filter-keys": str(len(keys)),
        }
        return bloom.to_bytes(), params
