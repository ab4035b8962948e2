"""Budget arithmetic on synthetic trees (no program involved)."""

import pytest

from spans import ROOT_LAYER, Recorder, budget, sync_self_time


def _span(rec, name, start, end, parent=None, rids=(1,), sync=False):
    span = rec.start(name, start, parent, rids, sync)
    span.end = end
    return span


def test_budget_with_a_shared_batch_span_sums_to_the_request_time():
    rec = Recorder()
    root1 = _span(rec, f"{ROOT_LAYER}:request", 0.0, 10.0)
    dispatch1 = _span(rec, "service.app:dispatch", 1.0, 9.0, root1)
    status1 = _span(rec, "cluster.frontend:status", 2.0, 8.0, dispatch1)
    probe = _span(rec, "filters.bloom:probe", 2.0, 2.5, status1, sync=True)
    root2 = _span(rec, f"{ROOT_LAYER}:request", 3.0, 9.5, rids=(2,))
    dispatch2 = _span(rec, "service.app:dispatch", 3.5, 9.0, root2, rids=(2,))
    status2 = _span(rec, "cluster.frontend:status", 3.8, 7.5, dispatch2, rids=(2,))
    # One batched RPC carries both requests: its time is split equally.
    invoke = _span(rec, "service.cluster:invoke", 4.0, 7.0, {1: status1, 2: status2}, rids=(1, 2))
    handler = _span(rec, "cluster.shard:status", 5.0, 6.0, invoke, rids=(1, 2), sync=True)
    sign = _span(rec, "crypto.signatures:sign", 5.2, 5.8, handler, rids=(1, 2), sync=True)

    first = budget(root1, [dispatch1, status1, probe, invoke, handler, sign])
    assert first == pytest.approx({
        ROOT_LAYER: 2.0,
        "service.app": 2.0,
        "filters.bloom": 0.5,
        # 1.5 + 1.0 alone, plus the half of the shared RPC it waited out
        "cluster.frontend": 4.0,
        "service.cluster": 1.0,
        "cluster.shard": 0.2,
        "crypto.signatures": 0.3,
    })
    assert sum(first.values()) == pytest.approx(root1.duration)

    second = budget(root2, [dispatch2, status2, invoke, handler, sign])
    assert sum(second.values()) == pytest.approx(root2.duration)
    assert second["service.cluster"] == pytest.approx(1.0)
    assert second["crypto.signatures"] == pytest.approx(0.3)
    # The RPC's 3 s are handed out once: half to each request's layers.
    shared = ("service.cluster", "cluster.shard", "crypto.signatures")
    assert sum(first[k] + second[k] for k in shared) == pytest.approx(invoke.duration)


def test_a_straggling_child_cannot_claim_time_after_its_parent_answered():
    rec = Recorder()
    root = _span(rec, f"{ROOT_LAYER}:request", 0.0, 10.0)
    dispatch = _span(rec, "service.app:dispatch", 1.0, 9.0, root)
    status = _span(rec, "cluster.frontend:status", 2.0, 6.0, dispatch)
    third_read = _span(rec, "service.cluster:invoke", 3.0, 8.0, status)
    got = budget(root, [dispatch, status, third_read])
    assert got == pytest.approx({
        ROOT_LAYER: 2.0, "service.app": 4.0, "cluster.frontend": 1.0, "service.cluster": 3.0,
    })


def test_sync_work_of_a_straggler_still_counts_while_it_runs():
    # The third replica's handler runs after the quorum answered but
    # before the reply is written: the CPU was in the shard, not the app.
    rec = Recorder()
    root = _span(rec, f"{ROOT_LAYER}:request", 0.0, 10.0)
    dispatch = _span(rec, "service.app:dispatch", 1.0, 9.0, root)
    status = _span(rec, "cluster.frontend:status", 2.0, 6.0, dispatch)
    invoke = _span(rec, "service.cluster:invoke", 3.0, 8.0, status)
    handler = _span(rec, "cluster.shard:status", 6.5, 7.5, invoke, sync=True)
    got = budget(root, [dispatch, status, invoke, handler])
    assert got["cluster.shard"] == pytest.approx(1.0)
    assert got["service.app"] == pytest.approx(3.0)
    assert sum(got.values()) == pytest.approx(10.0)


def test_an_unfinished_span_ends_with_its_request():
    rec = Recorder()
    root = _span(rec, f"{ROOT_LAYER}:request", 0.0, 4.0)
    dispatch = rec.start("service.app:dispatch", 1.0, root, (1,), False)
    assert budget(root, [dispatch]) == pytest.approx({ROOT_LAYER: 1.0, "service.app": 3.0})


def test_sync_self_time_subtracts_direct_sync_children_only():
    rec = Recorder()
    handler = _span(rec, "cluster.shard:status", 0.0, 1.0, sync=True)
    ledger = _span(rec, "ledger.ledger:status", 0.1, 0.9, handler, sync=True)
    sign = _span(rec, "crypto.signatures:sign", 0.2, 0.8, ledger, sync=True)
    assert sync_self_time(handler, [ledger]) == pytest.approx(0.2)
    assert sync_self_time(ledger, [sign]) == pytest.approx(0.2)
