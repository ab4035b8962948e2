"""A page view split at the filter changes what a view costs, not what it says.

``POST /status`` probes its ids with ``ClusterFrontend.probe_many``,
renders the misses from their verdicts and reads only the hits, and the
hot sites count through bound metric handles.  The parent's path is
kept below: the handler that passed every id to ``status_many_async``,
which answered each miss with a ``ClusterAnswer`` and a callback, and
sites that looked every metric up on every use (here: handles that
never remember).  A seeded mix of page views with hits, single reads
and writes, on an observability clock that stands still, must give the
same response bytes, the same ``/metrics`` text and the same finished
spans — name, ids, parent, tags and events, in order — on both paths.
Two runs of the new path agree too, so the comparison is not vacuous.

Both paths run the same sites, so a bound handle looked up under the
wrong label value would agree with itself; each labelled family is
therefore also held to the span tags that name the same thing.
"""

import asyncio
import json
import random
import re
from collections import Counter
from functools import partial

from repro.cluster.frontend import ClusterAnswer, ClusterFrontend
from repro.core.identifiers import PhotoIdentifier, compact_keys, identifier_string
from repro.obs import Observability
from repro.obs.metrics import Handles
from repro.service.app import MAX_BATCH_IDS, ServiceApp, ServiceServer
from repro.service.cluster import LiveCluster
from repro.service.errors import ApiError
from repro.service.protocol import HttpClient


def parent_status_many_async(
    self, identifiers, callback, use_filter=True, deadline=None, proof=True
):
    serials = list(identifiers)
    obs = self.obs
    verdicts = span = None
    if use_filter and self.observer is None:
        many = getattr(self.filterset, "might_be_revoked_many", None)
        if many is not None:
            if obs is not None:
                span = obs.start("frontend.status_many", ids=len(serials))
            verdicts = many(compact_keys(self.cluster_id, serials)).tolist()
            use_filter = False
    misses = 0
    for index, serial in enumerate(serials):
        if verdicts is None or verdicts[index]:
            self.status_async(
                PhotoIdentifier(self.cluster_id, serial),
                partial(callback, index),
                use_filter=use_filter,
                deadline=deadline,
                proof=proof,
            )
        else:
            misses += 1
            callback(index, ClusterAnswer(
                identifier_string(self.cluster_id, serial), False, "filter"
            ))
    if misses:
        self.stats.queries += misses
        self.stats.filter_short_circuits += misses
        if obs is not None:
            obs.counter("frontend_queries_total").inc(misses)
            obs.counter("frontend_filter_short_circuits_total").inc(misses)
            obs.counter("frontend_answers_total", source="filter").inc(misses)
            obs.histogram("frontend_status_latency_seconds").observe(
                obs.now() - span.started_at, count=misses
            )
    if span is not None:
        span.end(misses=misses)


async def parent_handle_status_batch(self, request, params):
    payload = request.json()
    if not isinstance(payload, dict) or not isinstance(payload.get("ids"), list):
        raise ApiError("malformed", "body must be {'ids': [...]}")
    raw_ids = payload["ids"]
    if not raw_ids:
        raise ApiError("malformed", "'ids' must not be empty")
    if len(raw_ids) > MAX_BATCH_IDS:
        raise ApiError("too_large", f"at most {MAX_BATCH_IDS} ids per batch")
    serials, texts = self._parse_batch(raw_ids)
    fragments = [None] * len(serials)
    head, tail = self._miss_template
    for index, answer in await self._call(
        self.frontend.status_many_async, serials,
        deadline=self._deadline_from(request), proof=False,
        calls=len(serials),
    ):
        fragments[index] = (
            head + texts[index] + tail if answer.source == "filter"
            else json.dumps(self._status_body(answer)[1])
        )
    body = '{"results": [' + ", ".join(fragments) + '], "error": null}'
    return 200, body.encode("utf-8"), {}


def forgetful(missing):
    """Handle lookups that are not kept: every use asks the registry."""
    def __missing__(handles, key):
        metric = missing(handles, key)
        del handles[key]
        return metric
    return __missing__


async def _seeded_mix(seed):
    obs = Observability(clock=lambda: 0.0)
    cluster = LiveCluster(4, obs=obs, seed=5)
    app = ServiceApp(cluster=cluster, obs=obs)
    cluster.clock = obs.now  # the app's request timer stands still too
    population = cluster.seed_population(128, revoked_fraction=0.1)
    app.adopt_population(population)
    server = ServiceServer(app, port=0)
    await server.start()
    client = HttpClient(server.host, server.port)
    rng = random.Random(seed)
    ids = [identifier.to_string() for identifier in population.identifiers]
    replies = []
    try:
        for step in range(40):
            kind = rng.choice(["view", "view", "view", "one", "claim", "revoke"])
            if kind == "view":
                view = rng.sample(ids, rng.randint(1, 64))
                view += [f"irs1:irs1:{rng.getrandbits(63)}" for _ in range(rng.randint(0, 4))]
                reply = await client.request("POST", "/status", {"ids": view})
            elif kind == "one":
                reply = await client.request("GET", f"/status/{rng.choice(ids)}")
            elif kind == "claim":
                reply = await client.request("POST", "/claims", {"content": f"mix-{step}"})
                if reply.status == 201:
                    ids.append(reply.json()["id"])
            else:
                reply = await client.request("POST", "/revocations", {
                    "id": rng.choice(ids), "action": rng.choice(["revoke", "unrevoke"]),
                })
            replies.append((reply.status, reply.body))
        replies.append((await client.request("GET", "/status/not-an-id")).status)
        metrics = (await client.request("GET", "/metrics")).body
    finally:
        await client.close()
        await server.stop()
    spans = [
        (s.name, s.trace_id, s.span_id, s.parent_id, s.tags, s.events)
        for s in obs.spans
    ]
    return replies, metrics, spans


def _family(metrics, name, label):
    """One labelled counter family of the ``/metrics`` text, by label value."""
    lines = re.findall(rf'^{name}{{{label}="([^"]*)"}} (\S+)$', metrics.decode(), re.M)
    return {value: float(count) for value, count in lines}


def test_each_bound_family_counts_what_the_spans_name():
    _, metrics, spans = asyncio.run(_seeded_mix(seed=31))
    tags = {}
    for name, *_, span_tags, _ in spans:
        tags.setdefault(name, []).append(span_tags)

    def by(name, tag):
        return dict(Counter(str(t[tag]) for t in tags[name]))

    requests = tags["service.request"]
    assert _family(metrics, "service_requests_total", "route") == by("service.request", "route")
    # The scrape's own response is counted after its text is rendered.
    codes = Counter(str(t["status"]) for t in requests[:-1])
    assert _family(metrics, "service_responses_total", "code") == dict(codes)
    assert _family(metrics, "frontend_batches_total", "shard") == by("frontend.batch", "shard")
    answers = Counter(t["source"] for t in tags["frontend.status"])
    answers["filter"] += sum(t["misses"] for t in tags["frontend.status_many"])
    assert _family(metrics, "frontend_answers_total", "source") == dict(answers)
    # StatusRead.note's handles are keyed by metric name: one query each.
    queries = re.search(r"^frontend_queries_total (\S+)$", metrics.decode(), re.M)
    assert float(queries.group(1)) == sum(answers.values())


def test_the_split_view_says_what_the_parents_path_said(monkeypatch):
    split = asyncio.run(_seeded_mix(seed=30))
    assert asyncio.run(_seeded_mix(seed=30)) == split
    monkeypatch.setattr(ClusterFrontend, "status_many_async", parent_status_many_async)
    monkeypatch.setattr(ServiceApp, "handle_status_batch", parent_handle_status_batch)
    monkeypatch.setattr(Handles, "__missing__", forgetful(Handles.__missing__))
    parent = asyncio.run(_seeded_mix(seed=30))
    replies, metrics, spans = split
    assert replies == parent[0]
    assert metrics == parent[1]
    assert spans == parent[2]
    # The mix exercised what the split changed: views with and without
    # hits, reads, and writes that moved filter verdicts.
    many = [tags for name, *_, tags, _ in spans if name == "frontend.status_many"]
    assert any(tags["misses"] == tags["ids"] for tags in many)
    assert any(tags["misses"] < tags["ids"] for tags in many)
    names = {name for name, *_ in spans}
    assert {"frontend.status", "frontend.claim", "frontend.revoke"} <= names
    assert b'frontend_answers_total{source="filter"}' in metrics
    assert b'service_responses_total{code="400"}' in metrics
