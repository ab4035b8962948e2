"""The asyncio adapter: the cluster the HTTP service fronts.

``LiveCluster`` is the :class:`~repro.cluster.assembly.Cluster`
assembly whose injected clock and scheduler are the asyncio event
loop's own ``loop.time`` / ``loop.call_later`` — which is why none of
the frontend's resilience machinery (deadline backstop, breakers,
shedding, degraded Bloom reads) needed changing to serve real sockets.
Only what is asyncio-specific lives here: the transport, the served
configuration, the slow-replica hook and the ``/bloom`` export.

:class:`AsyncioShardTransport` is the event-loop twin of the netsim
RPC layer: every ``invoke`` is delivered on a later loop tick (never
synchronously — callers rely on callback-after-return), guarded by a
real timeout timer, with per-shard ``down`` / ``delay`` fault hooks so
the error-envelope tests can produce breaker-open and deadline
conditions on demand.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.cluster.assembly import Cluster, LearningBloom
from repro.cluster.frontend import ClusterConfig
from repro.cluster.replication import ShardReply, clamp_rpc_timeout
from repro.filters.bloom import BloomFilter

__all__ = [
    "AsyncioShardTransport",
    "LiveCluster",
    "LiveClusterConfig",
    "LearningBloom",
]


class AsyncioShardTransport:
    """ShardTransport over the event loop: async delivery + real timeouts."""

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        handlers: Dict[str, Dict[str, Callable]],
        default_timeout: float = 0.1,
    ):
        self._loop = loop
        self._handlers = handlers
        self._default_timeout = default_timeout
        self.down: Set[str] = set()  # crashed: requests vanish, timers fire
        self.delays: Dict[str, float] = {}  # injected per-shard service delay
        self.calls = 0

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
        self.calls += 1
        handlers = self._handlers.get(shard_id)
        if handlers is None or method not in (handlers or {}):
            self._loop.call_soon(
                callback,
                ShardReply(shard_id, error=f"unknown shard or method {method}"),
            )
            return
        budget = clamp_rpc_timeout(self._default_timeout, timeout)
        done = False

        def _on_timeout() -> None:
            nonlocal done
            if done:
                return
            done = True
            callback(ShardReply(shard_id, error=f"rpc timeout after {budget:.3f}s"))

        timer = self._loop.call_later(budget, _on_timeout)

        def _deliver() -> None:
            nonlocal done
            if done:
                return
            if shard_id in self.down:
                return  # request lost in flight; the timeout timer answers
            try:
                value = handlers[method](payload)
            except Exception as exc:  # shard errors are replies, not raises
                done = True
                timer.cancel()
                callback(ShardReply(shard_id, error=str(exc)))
                return
            done = True
            timer.cancel()
            callback(ShardReply(shard_id, value=value))

        delay = self.delays.get(shard_id, 0.0)
        if delay > 0.0:
            self._loop.call_later(delay, _deliver)
        else:
            self._loop.call_soon(_deliver)


@dataclass
class LiveClusterConfig:
    """Knobs for the served cluster (E19's ``full`` policy, live)."""

    num_shards: int = 4
    replication_factor: int = 3
    seed: int = 0
    key_bits: int = 512
    request_deadline: float = 0.25  # the paper's §4.4 revocation-check budget
    rpc_timeout: float = 0.1
    max_retries: int = 2
    breaker_threshold: int = 3
    breaker_reset_timeout: float = 0.4
    shed_rate: Optional[float] = None  # requests/second; None = no shedding
    shed_burst: int = 32
    degraded_reads: bool = True
    filter_capacity: int = 8192

    def cluster_config(self) -> ClusterConfig:
        return ClusterConfig(
            replication_factor=min(self.replication_factor, self.num_shards),
            request_deadline=self.request_deadline,
            max_retries=self.max_retries,
            backoff_base=0.01,
            backoff_cap=0.08,
            breaker_threshold=self.breaker_threshold,
            breaker_reset_timeout=self.breaker_reset_timeout,
            shed_rate=self.shed_rate,
            shed_burst=self.shed_burst,
            degraded_reads=self.degraded_reads,
            hinted_handoff=True,
        )


class LiveCluster(Cluster):
    """Shards + frontend wired to the running event loop.

    Must be constructed inside a running loop (the server's); the
    frontend's scheduler is ``loop.call_later``, so backoff, deadline
    backstops and hint replay ride real time and a batch leaves on the
    loop iteration after the one that filled it.
    """

    def __init__(
        self,
        config: Optional[LiveClusterConfig] = None,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        obs=None,
    ):
        self.config = config or LiveClusterConfig()
        self._loop = loop or asyncio.get_running_loop()
        super().__init__(
            self.config.num_shards,
            clock=self._loop.time,
            scheduler=self._schedule,
            transport_factory=lambda shards: AsyncioShardTransport(
                self._loop,
                {sid: shard.rpc_handlers() for sid, shard in shards.items()},
                default_timeout=self.config.rpc_timeout,
            ),
            config=self.config.cluster_config(),
            seed=self.config.seed,
            cluster_id="irs1",
            key_bits=self.config.key_bits,
            filterset=LearningBloom(capacity=self.config.filter_capacity),
            obs=obs,
        )

    def _schedule(self, delay: float, fn: Callable[[], None]) -> None:
        if delay > 0.0:
            self._loop.call_later(delay, fn)
        else:
            # The batcher's end-of-tick marker: the next loop iteration,
            # behind everything this one admits, and no timer-heap entry.
            self._loop.call_soon(fn)

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
