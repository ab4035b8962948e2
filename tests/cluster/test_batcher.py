"""The batching engine alone: fake transport, manual scheduler, no cluster."""

from repro.cluster.batcher import StatusBatcher
from repro.cluster.frontend import FrontendStats
from repro.cluster.replication import ShardReply
from repro.resilience import Deadline


class FakeTransport:
    """Records every RPC and answers only when the test says so."""

    def __init__(self):
        self.calls = []  # (shard_id, method, payload, timeout)
        self._callbacks = []

    def invoke(self, shard_id, method, payload, callback, timeout=None):
        self.calls.append((shard_id, method, payload, timeout))
        self._callbacks.append((shard_id, payload, callback))

    def reply(self, index, error=None):
        """Answer call ``index``: echo its serials, or fail with ``error``."""
        shard_id, payload, callback = self._callbacks[index]
        if error is not None:
            callback(ShardReply(shard_id, error=error))
        else:
            entries = [{"serial": serial} for serial in payload["serials"]]
            callback(ShardReply(shard_id, value=entries))


class ManualScheduler:
    def __init__(self):
        self.timers = []  # (delay, fn)

    def __call__(self, delay, fn):
        self.timers.append((delay, fn))

    def end_tick(self):
        timers, self.timers = self.timers, []
        for _, fn in timers:
            fn()


class Item:
    def __init__(self):
        self.records = []
        self.errors = []

    def record(self, shard_id, entry):
        self.records.append((shard_id, entry))

    def record_error(self, shard_id, error):
        self.errors.append((shard_id, error))


class Rig:
    def __init__(self, sync=False, now=10.0, **limits):
        self.transport = FakeTransport()
        self.scheduler = None if sync else ManualScheduler()
        self.stats = FrontendStats()
        self.results = []  # (shard_id, ok) as told to on_result
        self.batcher = StatusBatcher(
            self.transport,
            lambda: now,
            self.scheduler,
            self.stats,
            lambda shard_id, ok: self.results.append((shard_id, ok)),
            **limits,
        )

    def enqueue(self, shard_id, serial, deadline=None, signed=False):
        item = Item()
        self.batcher.enqueue(shard_id, serial, item, deadline, signed)
        return item


def test_same_tick_lookups_for_one_shard_leave_in_one_rpc():
    rig = Rig()
    items = [rig.enqueue("a", serial, signed=serial == 2) for serial in (1, 2, 3)]
    other = rig.enqueue("b", 9)
    rig.batcher.pump()
    assert rig.transport.calls == []  # nothing leaves before the tick ends
    assert [delay for delay, _ in rig.scheduler.timers] == [0, 0]  # one per shard
    rig.scheduler.end_tick()
    assert rig.transport.calls == [
        ("a", "status", {"serials": [1, 2, 3], "signed": [False, True, False]}, None),
        ("b", "status", {"serials": [9], "signed": [False]}, None),
    ]
    assert rig.batcher.inflight == 2 and rig.batcher.pending == 0
    rig.transport.reply(0)
    rig.transport.reply(1)
    assert [item.records for item in items] == [
        [("a", {"serial": serial})] for serial in (1, 2, 3)
    ]
    assert other.records == [("b", {"serial": 9})]
    assert rig.results == [("a", True), ("b", True)]
    assert rig.batcher.inflight == 0
    assert (rig.stats.shard_lookups, rig.stats.batches_sent) == (4, 2)
    assert rig.stats.batch_items == 4 and rig.stats.peak_inflight == 2


def test_the_33rd_item_starts_a_second_batch_in_fifo_order():
    rig = Rig()
    for serial in range(40):
        rig.enqueue("a", serial)
    assert rig.transport.calls == []  # full, but the caller has not pumped
    rig.batcher.pump()
    # The remainder waited as long as the full batch did: it goes too.
    assert [call[2]["serials"] for call in rig.transport.calls] == [
        list(range(32)), list(range(32, 40))
    ]
    rig.scheduler.end_tick()  # the tick's own callback finds nothing left
    assert len(rig.transport.calls) == 2 and rig.batcher.pending == 0


def test_max_inflight_holds_the_next_batch_until_a_reply_frees_a_slot():
    rig = Rig(max_inflight=1)
    first, second = rig.enqueue("a", 1), rig.enqueue("b", 2)
    rig.scheduler.end_tick()
    assert [call[0] for call in rig.transport.calls] == ["a"]
    assert rig.stats.throttled > 0 and rig.batcher.pending == 1
    rig.transport.reply(0)
    assert [call[0] for call in rig.transport.calls] == ["a", "b"]
    rig.transport.reply(1)
    assert first.records and second.records
    assert rig.stats.peak_inflight == 1 and rig.batcher.inflight == 0


def test_rpc_timeout_is_the_tightest_remaining_deadline_in_the_batch():
    rig = Rig(now=10.0)
    rig.enqueue("a", 1, deadline=Deadline(10.25))
    rig.enqueue("a", 2)
    rig.enqueue("a", 3, deadline=Deadline(10.125))
    rig.enqueue("b", 4)
    rig.scheduler.end_tick()
    assert [(call[0], call[3]) for call in rig.transport.calls] == [
        ("a", 0.125), ("b", None)
    ]


def test_an_error_reply_reaches_every_item():
    rig = Rig()
    items = [rig.enqueue("a", serial) for serial in (1, 2)]
    rig.scheduler.end_tick()
    rig.transport.reply(0, error="rpc timeout")
    assert [item.errors for item in items] == [[("a", "rpc timeout")]] * 2
    assert all(not item.records for item in items)
    assert rig.results == [("a", False)] and rig.batcher.inflight == 0


def test_sync_mode_sends_on_enqueue():
    rig = Rig(sync=True)
    item = rig.enqueue("a", 1, signed=True)
    assert rig.transport.calls == [
        ("a", "status", {"serials": [1], "signed": [True]}, None)
    ]
    rig.enqueue("a", 2)
    assert len(rig.transport.calls) == 2  # no tick to wait for, no coalescing
    rig.transport.reply(0)
    assert item.records == [("a", {"serial": 1})]
