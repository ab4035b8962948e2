"""The batching engine: replica status lookups leave in per-shard RPCs.

Two mechanisms keep shard load sub-linear in client load:

* **Per-shard batching** — lookups routed to the same shard during one
  scheduler tick (one event-loop iteration on asyncio, one instant in
  netsim: a 64-id ``POST /status``, or every connection readable in
  that iteration) coalesce into one ``status`` RPC, sent when the tick
  ends — up to ``max_batch`` per RPC, and no lookup waits on a timer.
* **Backpressure** — at most ``max_inflight`` batch RPCs are
  outstanding; further batches queue here instead of piling onto a
  saturated shard, which keeps the cluster in the well-behaved region
  of its latency curve during overload.

The batcher knows nothing about reads: an item is whatever the caller
queued, and all it ever does with one is hand it its entry of the
reply (``item.record(shard_id, entry)``) or the RPC's error
(``item.record_error(shard_id, error)``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.cluster.replication import ShardReply, ShardTransport
from repro.obs.metrics import Handles
from repro.resilience import Deadline

__all__ = ["StatusBatcher"]


class StatusBatcher:
    """Coalesces status lookups per shard under an in-flight window.

    Parameters
    ----------
    transport / clock:
        The wire to the shards and the time base deadlines are read on.
    scheduler:
        ``scheduler(delay_s, callback)``, used only with ``delay_s == 0``
        to learn that the current tick has ended.  None is synchronous
        mode: there are no ticks, so every lookup is sent as it is
        queued.
    stats:
        Where the counts go: ``shard_lookups``, ``batches_sent``,
        ``batch_items``, ``throttled`` and ``peak_inflight`` (the
        frontend's :class:`~repro.cluster.frontend.FrontendStats`).
    on_result:
        ``on_result(shard_id, ok)``, told the outcome of every RPC.
    """

    def __init__(
        self,
        transport: ShardTransport,
        clock: Callable[[], float],
        scheduler: Optional[Callable[[float, Callable[[], None]], None]],
        stats: Any,
        on_result: Callable[[str, bool], None],
        max_batch: int = 32,
        max_inflight: int = 16,
        obs=None,
    ):
        self._transport = transport
        self._clock = clock
        self._scheduler = scheduler
        self._stats = stats
        self._on_result = on_result
        self.max_batch = max_batch
        self.max_inflight = max_inflight
        self.obs = obs
        self._batch_size = None if obs is None else obs.histogram(
            "frontend_batch_size", buckets=(1, 2, 4, 8, 16, 32, 64)
        )
        self._batches = None if obs is None else Handles(
            obs.counter, "frontend_batches_total", "shard"
        )
        # Per-shard pending (item, serial, deadline, signed) lookups.
        self._queues: Dict[str, List[tuple]] = {}
        self._ready: List[str] = []  # FIFO of shards with sendable batches
        self.inflight = 0

    @property
    def pending(self) -> int:
        """Lookups queued and not yet sent."""
        return sum(len(queue) for queue in self._queues.values())

    def enqueue(
        self,
        shard_id: str,
        serial: int,
        item: Any,
        deadline: Optional[Deadline],
        signed: bool,
    ) -> None:
        """Queue one replica lookup; it leaves when this tick ends.

        A full batch only becomes *ready* here: the caller queues a
        whole read set and then calls :meth:`pump` once.
        """
        self._stats.shard_lookups += 1
        queue = self._queues.setdefault(shard_id, [])
        queue.append((item, serial, deadline, signed))
        if self._scheduler is None:
            self._mark_ready(shard_id)
            self.pump()
        elif len(queue) >= self.max_batch:
            self._mark_ready(shard_id)
        elif len(queue) == 1:
            # First lookup for this shard since its queue drained:
            # whatever else arrives before the scheduler runs again
            # rides in the same RPC.  A longer queue already has this
            # callback pending, or is held back by ``max_inflight`` and
            # leaves when a reply frees a slot.
            self._scheduler(0, lambda: self._end_of_tick(shard_id))

    def _end_of_tick(self, shard_id: str) -> None:
        if self._queues.get(shard_id):
            self._mark_ready(shard_id)
            self.pump()

    def _mark_ready(self, shard_id: str) -> None:
        if shard_id not in self._ready:
            self._ready.append(shard_id)

    def pump(self) -> None:
        """Send ready batches until the in-flight window is full."""
        while self._ready:
            if self.inflight >= self.max_inflight:
                self._stats.throttled += 1
                return
            shard_id = self._ready.pop(0)
            queue = self._queues.get(shard_id, [])
            if not queue:
                continue
            batch = queue[: self.max_batch]
            self._queues[shard_id] = queue[self.max_batch:]
            if self._queues[shard_id]:
                self._ready.append(shard_id)  # remainder already waited
            self._send(shard_id, batch)

    def _send(self, shard_id: str, batch: List[tuple]) -> None:
        stats = self._stats
        self.inflight += 1
        stats.peak_inflight = max(stats.peak_inflight, self.inflight)
        stats.batches_sent += 1
        stats.batch_items += len(batch)
        bspan = None
        if self.obs is not None:
            self._batches[shard_id].inc()
            self._batch_size.observe(len(batch))
            bspan = self.obs.start(
                "frontend.batch", shard=shard_id, items=len(batch)
            )

        def _on_reply(reply: ShardReply) -> None:
            if bspan is not None:
                bspan.end(ok=reply.ok)
            self.inflight -= 1
            self._on_result(shard_id, reply.ok)
            if reply.ok:
                for (item, _, _, _), entry in zip(batch, reply.value):
                    item.record(shard_id, entry)
            else:
                for item, _, _, _ in batch:
                    item.record_error(shard_id, reply.error)
            self.pump()

        # Deadline propagation: the RPC timeout shrinks to the tightest
        # remaining budget in the batch, so a sub-call can never outlive
        # the request it serves.
        now = self._clock()
        budgets = [
            deadline.remaining(now)
            for _, _, deadline, _ in batch
            if deadline is not None
        ]
        self._transport.invoke(
            shard_id,
            "status",
            {
                "serials": [serial for _, serial, _, _ in batch],
                "signed": [signed for _, _, _, signed in batch],
            },
            _on_reply,
            timeout=min(budgets) if budgets else None,
        )
