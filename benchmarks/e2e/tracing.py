"""The traced in-process run: where the per-layer numbers come from.

Spans are recorded only from this file, by wrapping the public
callables at each layer boundary.  The wrappers go on the *classes*,
before the cluster is built, because ``ClusterShard.rpc_handlers()``
hands the transport bound methods at construction; they check a flag,
so one cluster serves an untraced pass (flag off: one extra call frame
per wrapped call) and then a traced pass over the next requests of the
same stream.  ``uninstall`` puts every original back.

A request is followed across ``call_soon``/``call_later`` by a
contextvar holding the current span; the client's ``x-request-id``
header names the request at ``ServiceApp.dispatch``.

``service.protocol`` cannot be wrapped without touching ``src/`` (the
server binds ``read_request``/``render_response`` by name at import),
so it is measured by replaying the recorded request and reply bytes
through those two functions directly.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from collections import defaultdict
from statistics import fmean
from typing import Callable, Dict, List, Optional, Tuple

from loadgen import Driver, Sample, populate
from spans import ROOT_LAYER, Recorder, Span, budget, sync_self_time
from workloads import WARMUP_REQUESTS, WORKLOADS, stream

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("e2e_span", default=None)
_now = time.perf_counter


class Tracer:
    """Installs and removes the span wrappers; owns the recorder."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self._pending: Dict[int, List[Span]] = {}  # serial -> waiting status spans
        self._originals: List[Tuple[type, str, Callable]] = []

    # -- install / uninstall ----------------------------------------------------------

    def install(self) -> None:
        from repro.cluster.frontend import ClusterFrontend
        from repro.cluster.shard import ClusterShard
        from repro.crypto.signatures import KeyPair, PublicKey
        from repro.crypto.timestamp import TimestampAuthority
        from repro.ledger.events import EventLog
        from repro.ledger.ledger import Ledger
        from repro.ledger.storage import LedgerStore
        from repro.service.app import ServiceApp
        from repro.service.cluster import AsyncioShardTransport, LearningBloom

        sync = self._wrap_sync
        for method in ("claim", "challenge", "revoke", "unrevoke", "apply_state", "status"):
            sync(ClusterShard, method, f"cluster.shard:{method}")
        for method in ("status", "claim", "revoke", "unrevoke", "make_challenge"):
            sync(Ledger, method, f"ledger.ledger:{method}")
        for method in ("put", "apply_flip", "log_operation"):
            sync(LedgerStore, method, f"ledger.storage:{method}")
        sync(EventLog, "append", "ledger.events:append")
        for method in ("sign", "sign_struct"):
            sync(KeyPair, method, f"crypto.signatures:{method}")
        for method in ("verify", "verify_struct"):
            sync(PublicKey, method, f"crypto.signatures:{method}")
        sync(TimestampAuthority, "issue", "crypto.timestamp:issue")
        sync(LearningBloom, "might_be_revoked", "filters.bloom:probe", keys=lambda key: 1)
        sync(LearningBloom, "might_be_revoked_many", "filters.bloom:probe", keys=len)
        self._replace(ServiceApp, "dispatch", self._dispatch)
        self._replace(ClusterFrontend, "status_async", self._status_async)
        self._replace(ClusterFrontend, "status_many_async", self._status_many_async)
        self._replace(ClusterFrontend, "claim_async", self._answered_by(3, "cluster.frontend:claim"))
        self._replace(ClusterFrontend, "revoke_async", self._answered_by(2, "cluster.frontend:revoke"))
        self._replace(AsyncioShardTransport, "invoke", self._invoke)

    def uninstall(self) -> None:
        while self._originals:
            cls, method, original = self._originals.pop()
            setattr(cls, method, original)

    def _replace(self, cls: type, method: str, make: Callable) -> None:
        original = getattr(cls, method)
        self._originals.append((cls, method, original))
        setattr(cls, method, make(original))

    # -- span helpers -------------------------------------------------------------------

    def _child(self, name: str, sync: bool, **attrs) -> Span:
        parent = _CURRENT.get()
        rids = parent.rids if parent is not None else ()
        return self.recorder.start(name, _now(), parent, rids, sync, **attrs)

    def _wrap_sync(self, cls: type, method: str, name: str, keys=None) -> None:
        recorder = self.recorder

        def make(original):
            def wrapper(self_, *args, **kwargs):
                if not recorder.enabled:
                    return original(self_, *args, **kwargs)
                attrs = {"keys": keys(args[0])} if keys is not None else {}
                span = self._child(name, True, **attrs)
                token = _CURRENT.set(span)
                try:
                    return original(self_, *args, **kwargs)
                finally:
                    span.end = _now()
                    _CURRENT.reset(token)
            return wrapper

        self._replace(cls, method, make)

    # -- the async seams ------------------------------------------------------------------

    def _dispatch(self, original):
        recorder = self.recorder

        async def dispatch(app, request):
            if not recorder.enabled:
                return await original(app, request)
            rid = int(request.headers.get("x-request-id", -1))
            span = recorder.start("service.app:dispatch", _now(), None, (rid,), False)
            token = _CURRENT.set(span)
            try:
                return await original(app, request)
            finally:
                span.end = _now()
                _CURRENT.reset(token)
        return dispatch

    def _status_async(self, original):
        recorder, pending = self.recorder, self._pending

        def status_async(frontend, identifier, callback, *args, **kwargs):
            if not recorder.enabled:
                return original(frontend, identifier, callback, *args, **kwargs)
            span = self._child("cluster.frontend:status", False)
            waiting = pending.setdefault(identifier.serial, [])
            waiting.append(span)

            def answered(answer):
                span.end = _now()
                waiting.remove(span)
                if not waiting:
                    pending.pop(identifier.serial, None)
                callback(answer)

            token = _CURRENT.set(span)
            try:
                return original(frontend, identifier, answered, *args, **kwargs)
            finally:
                _CURRENT.reset(token)
        return status_async

    def _status_many_async(self, original):
        recorder = self.recorder

        def status_many_async(frontend, identifiers, callback, *args, **kwargs):
            if not recorder.enabled:
                return original(frontend, identifiers, callback, *args, **kwargs)
            identifiers = list(identifiers)
            span = self._child("cluster.frontend:status_many", False)
            remaining = [len(identifiers)]

            def answered(index, answer):
                remaining[0] -= 1
                if remaining[0] == 0:
                    span.end = _now()
                callback(index, answer)

            token = _CURRENT.set(span)
            try:
                return original(frontend, identifiers, answered, *args, **kwargs)
            finally:
                _CURRENT.reset(token)
        return status_many_async

    def _answered_by(self, callback_at: int, name: str):
        """Wrapper for ``f(self, ..., callback, ...)`` answered once by callback."""
        recorder = self.recorder

        def make(original):
            def wrapper(frontend, *args, **kwargs):
                if not recorder.enabled:
                    return original(frontend, *args, **kwargs)
                span = self._child(name, False)
                callback = args[callback_at]

                def answered(*result):
                    span.end = _now()
                    callback(*result)

                args = (*args[:callback_at], answered, *args[callback_at + 1:])
                token = _CURRENT.set(span)
                try:
                    return original(frontend, *args, **kwargs)
                finally:
                    _CURRENT.reset(token)
            return wrapper
        return make

    def _invoke(self, original):
        recorder, pending = self.recorder, self._pending

        def invoke(transport, shard_id, method, payload, callback, timeout=None):
            if not recorder.enabled:
                return original(transport, shard_id, method, payload, callback, timeout)
            started = _now()
            parent = _CURRENT.get()
            if method == "status":
                # A batched read works for every request waiting on one
                # of its serials, whichever request's timer sent it.
                carried: Dict[int, Span] = {}
                for serial in payload["serials"]:
                    for waiting in pending.get(serial, ()):
                        waiting.attrs.setdefault("first_invoke", started)
                        for rid in waiting.rids:
                            carried[rid] = waiting
                if len(carried) > 1:
                    parent = carried
                elif carried:
                    parent = next(iter(carried.values()))
                rids = tuple(sorted(carried))
            else:
                rids = parent.rids if parent is not None else ()
            span = recorder.start(
                "service.cluster:invoke", started, parent, rids, False,
                method=method, shard=shard_id,
            )

            def replied(reply):
                span.end = _now()
                if reply.error is not None and "rpc timeout" in reply.error:
                    span.attrs["timeout"] = True
                # This runs in the delivery's own copy of the context:
                # what the callback starts belongs to the caller again.
                _CURRENT.set(parent if isinstance(parent, Span) else None)
                callback(reply)

            token = _CURRENT.set(span)
            try:
                return original(transport, shard_id, method, payload, replied, timeout)
            finally:
                _CURRENT.reset(token)
        return invoke


# -- the run -----------------------------------------------------------------------------


class TracedRun:
    """What one in-process run hands to the metric derivation."""

    def __init__(self) -> None:
        self.untraced: List[Sample] = []
        self.untraced_seconds = 0.0
        self.traced: List[Sample] = []
        self.traced_seconds = 0.0
        # (request bytes, status, headers, body) of every traced request
        self.exchanges: List[Tuple[bytes, int, Dict[str, str], bytes]] = []
        self.spans: List[Span] = []
        self.appends = 0  # sum of shard event-log head_seq growth, traced pass
        self.violations: List[str] = []


async def traced_run(
    workload: str,
    seed: int,
    requests: Optional[int] = None,
    shard_delay: float = 0.0,
) -> TracedRun:
    """Untraced then traced pass over one in-process server.

    ``shard_delay`` (the negative control) slows every replica through
    the public ``LiveCluster.delay_shard`` hook during both passes.
    """
    from repro.obs import Observability
    from repro.service.app import ServiceApp, ServiceServer
    from repro.service.cluster import LiveCluster

    count = requests or WORKLOADS[workload].traced_requests
    run = TracedRun()
    tracer = Tracer()
    tracer.install()
    try:
        obs = Observability(clock=asyncio.get_running_loop().time)
        cluster = LiveCluster(obs=obs)
        server = ServiceServer(ServiceApp(cluster=cluster, obs=obs), port=0)
        host, port = await server.start()
        driver = None
        try:
            oracle = await populate(host, port, workload, seed)
            driver = Driver(host, port, oracle, stream(workload, seed))
            for shard_id in cluster.shards:
                cluster.delay_shard(shard_id, shard_delay)
            await driver.closed(count=WARMUP_REQUESTS)
            started = _now()
            run.untraced = await driver.closed(count=count)
            run.untraced_seconds = _now() - started
            await asyncio.sleep(0.05)  # let straggling replica replies land untraced

            def heads() -> int:
                return sum(
                    shard.ledger.store.events.head_seq
                    for shard in cluster.shards.values()
                )

            before = heads()
            driver.exchanges = run.exchanges
            tracer.recorder.enabled = True
            started = _now()
            run.traced = await driver.closed(count=count)
            run.traced_seconds = _now() - started
            tracer.recorder.enabled = False
            run.appends = heads() - before
            run.violations = oracle.violations
        finally:
            if driver is not None:
                await driver.close()
            await server.stop()
    finally:
        tracer.uninstall()
    run.spans = tracer.recorder.spans
    _add_roots(run, tracer.recorder)
    return run


def _add_roots(run: TracedRun, recorder: Recorder) -> None:
    """One root span per traced request; its dispatch span hangs under it."""
    dispatch = {
        span.rids[0]: span for span in recorder.spans
        if span.name == "service.app:dispatch"
    }
    for sample in run.traced:
        root = recorder.start(
            f"{ROOT_LAYER}:request", sample.sent, None, (sample.number,), False,
            kind=sample.kind,
        )
        root.end = sample.end
        if sample.number in dispatch:
            dispatch[sample.number].parent = root


# -- direct-call replay of service.protocol ---------------------------------------------


async def replay_protocol(run: TracedRun) -> Tuple[float, float]:
    """(parse, render) seconds per request through the program's own codec."""
    from repro.service.protocol import read_request, render_response

    reader = asyncio.StreamReader(limit=4 * 1024 * 1024)
    for raw, _, _, _ in run.exchanges:
        reader.feed_data(raw)
    started = _now()
    for _ in run.exchanges:
        await read_request(reader)
    parse = (_now() - started) / max(len(run.exchanges), 1)
    started = _now()
    for _, status, headers, body in run.exchanges:
        extra = {k: v for k, v in headers.items() if k == "etag" or k.startswith("x-")}
        render_response(
            status, body,
            content_type=headers.get("content-type", "application/json"),
            extra_headers=extra,
        )
    render = (_now() - started) / max(len(run.exchanges), 1)
    return parse, render


# -- metric derivation ----------------------------------------------------------------------


def layer_budget(run: TracedRun) -> Dict[str, float]:
    """Seconds per layer over all traced requests; sums to their total time."""
    by_request: Dict[int, List[Span]] = defaultdict(list)
    roots: Dict[int, Span] = {}
    for span in run.spans:
        if span.layer == ROOT_LAYER:
            roots[span.rids[0]] = span
        else:
            for rid in span.rids:
                by_request[rid].append(span)
    totals: Dict[str, float] = defaultdict(float)
    for rid, root in roots.items():
        for layer, seconds in budget(root, by_request.get(rid, [])).items():
            totals[layer] += seconds
    return dict(totals)


def _mean_us(values) -> float:
    values = list(values)
    return fmean(values) * 1e6 if values else 0.0


def layer_metrics(
    run: TracedRun, totals: Dict[str, float], parse_s: float, render_s: float
) -> Dict[str, float]:
    """Every span- and replay-derived per-layer metric of one workload.

    ``totals`` is ``layer_budget(run)``; ``parse_s``/``render_s`` come
    from ``replay_protocol(run)``.
    """
    spans = [s for s in run.spans if s.end is not None and s.rids]
    named: Dict[str, List[Span]] = defaultdict(list)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        named[span.name].append(span)
        if isinstance(span.parent, Span):
            children[span.parent.id].append(span)
    requests = len(run.traced)
    ops = sum(sample.ops for sample in run.traced)
    request_time = sum(root.duration for root in named[f"{ROOT_LAYER}:request"])

    def per_request_us(layer: str) -> float:
        return totals.get(layer, 0.0) / requests * 1e6

    def self_us(names) -> float:
        return _mean_us(
            sync_self_time(s, children[s.id]) for n in names for s in named[n]
        )

    def duration_us(*names) -> float:
        return _mean_us(s.duration for n in names for s in named[n])

    def outermost(prefix: str) -> float:
        """Total time of ``prefix`` and ``prefix_struct`` spans, nested once."""
        return sum(
            s.duration for n in (prefix, prefix + "_struct") for s in named[n]
            if not (isinstance(s.parent, Span) and s.parent.name == prefix + "_struct")
        )

    probes = named["filters.bloom:probe"]
    invokes = named["service.cluster:invoke"]
    handlers = [s for name, group in named.items() if name.startswith("cluster.shard:") for s in group]
    status_spans = named["cluster.frontend:status"]
    signs = named["crypto.signatures:sign"]
    verifies = named["crypto.signatures:verify"]
    appends = named["ledger.events:append"]
    untraced_rate = sum(s.ops for s in run.untraced) / run.untraced_seconds
    traced_rate = ops / run.traced_seconds
    return {
        "service.protocol.parse_us": parse_s * 1e6,
        "service.protocol.render_us": render_s * 1e6,
        "service.protocol.request_bytes": fmean(s.request_bytes for s in run.traced),
        "service.protocol.response_bytes": fmean(s.response_bytes for s in run.traced),
        "service.app.self_us": per_request_us("service.app"),
        "filters.bloom.probe_us": (
            sum(s.duration for s in probes) / max(sum(s.attrs["keys"] for s in probes), 1) * 1e6
        ),
        "cluster.frontend.self_us": per_request_us("cluster.frontend"),
        "cluster.frontend.batch_wait_us": _mean_us(
            s.attrs["first_invoke"] - s.start for s in status_spans if "first_invoke" in s.attrs
        ),
        "cluster.frontend.rpcs_per_op": len(invokes) / ops,
        "service.cluster.hop_us": _mean_us(
            s.duration - sum(c.duration for c in children[s.id] if c.sync) for s in invokes
        ),
        "service.cluster.timeouts_per_kop": (
            sum(1 for s in invokes if s.attrs.get("timeout")) / ops * 1e3
        ),
        "cluster.shard.self_us": _mean_us(
            sync_self_time(s, children[s.id]) for s in handlers
        ),
        "cluster.shard.rpcs_per_op": len(handlers) / ops,
        "ledger.ledger.status_us": duration_us("ledger.ledger:status"),
        "ledger.ledger.claim_us": duration_us("ledger.ledger:claim"),
        "ledger.ledger.revoke_us": duration_us("ledger.ledger:revoke", "ledger.ledger:unrevoke"),
        "ledger.events.append_us": duration_us("ledger.events:append"),
        "ledger.events.appends_per_op": run.appends / ops,
        "ledger.storage.self_us": self_us(("ledger.storage:put", "ledger.storage:apply_flip")),
        "ledger.storage.log_operation_us": duration_us("ledger.storage:log_operation"),
        "crypto.signatures.sign_us": outermost("crypto.signatures:sign") / max(len(signs), 1) * 1e6,
        "crypto.signatures.verify_us": outermost("crypto.signatures:verify") / max(len(verifies), 1) * 1e6,
        "crypto.signatures.signs_per_op": len(signs) / ops,
        "crypto.signatures.verifies_per_op": len(verifies) / ops,
        "crypto.timestamp.issue_us": duration_us("crypto.timestamp:issue"),
        "trace.inproc_ops_per_s": untraced_rate,
        "trace.overhead_fraction": 1.0 - traced_rate / untraced_rate,
        "trace.request_us": request_time / requests * 1e6,
        "trace.unattributed_fraction": totals.get(ROOT_LAYER, 0.0) / request_time,
        "trace.accounted_fraction": sum(totals.values()) / request_time,
    }
