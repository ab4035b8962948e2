"""Spans kept in memory, and the arithmetic that turns them into a budget.

A span has a name ``<layer>:<operation>``, a start, an end, the span
that caused it and the requests it worked for.  Two kinds exist:

* a *sync* span brackets one function call; while it is open the
  single-threaded program is executing inside it;
* an *async* span runs from a call to the callback that answers it;
  while it is open the request is waiting on it.

``budget`` gives every instant of a request's client-observed time to
exactly one span of that request, so per request the layer times sum to
the request time with nothing counted twice:

1. if a sync span of the request is open, the most recently started
   one has the instant (classic self time: a span's duration minus its
   children's);
2. otherwise the most recently started open async span has it; an
   async span counts as open only while its parent is (a straggling
   third replica read cannot claim time after its quorum answered);
3. a span carrying ``n`` requests (a batched RPC) keeps ``1/n`` of the
   instant and hands the rest up to its parent in this request's tree,
   where it shows as waiting.

The root span of a request is the client's send-to-last-byte interval;
its own share is the time in no layer span (socket, parsing, rendering,
event loop, client) and is reported as unattributed.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple, Union

ROOT_LAYER = "trace.unattributed"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "rids", "sync", "attrs")

    def __init__(self, id, name, start, parent, rids, sync, attrs):
        self.id: int = id
        self.name: str = name
        self.start: float = start
        self.end: Optional[float] = None
        # A Span, or for a span shared by several requests {rid: Span}.
        self.parent: Union[None, "Span", Dict[int, "Span"]] = parent
        self.rids: Tuple[int, ...] = rids
        self.sync: bool = sync
        self.attrs: dict = attrs

    @property
    def layer(self) -> str:
        return self.name.partition(":")[0]

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def parent_for(self, rid: int) -> Optional["Span"]:
        if isinstance(self.parent, dict):
            return self.parent.get(rid)
        return self.parent

    def to_dict(self) -> dict:
        if isinstance(self.parent, dict):
            parent = {str(rid): span.id for rid, span in self.parent.items()}
        else:
            parent = self.parent.id if self.parent is not None else None
        return {
            "id": self.id, "name": self.name, "start": self.start,
            "end": self.end, "parent": parent, "requests": list(self.rids),
            "sync": self.sync, **self.attrs,
        }


class Recorder:
    """Append-only span store; wrappers check ``enabled`` before recording."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []

    def start(self, name, start, parent=None, rids=(), sync=True, **attrs) -> Span:
        span = Span(len(self.spans), name, start, parent, tuple(rids), sync, attrs)
        self.spans.append(span)
        return span


def write_jsonl(spans: Iterable[Span], path) -> None:
    with open(path, "w") as out:
        for span in spans:
            out.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


def sync_self_time(span: Span, children: Iterable[Span]) -> float:
    """Duration minus direct sync children (which nest and never overlap)."""
    return span.duration - sum(c.duration for c in children if c.sync)


def budget(root: Span, spans: List[Span]) -> Dict[str, float]:
    """Seconds of ``root``'s interval per layer, for request ``root.rids[0]``.

    ``spans`` are the spans that carry this request (the root excluded).
    The values sum to ``root.duration`` exactly.
    """
    rid = root.rids[0]
    lo, hi = root.start, root.end
    window: Dict[int, Tuple[float, float]] = {root.id: (lo, hi)}

    def effective(span: Span) -> Tuple[float, float]:
        got = window.get(span.id)
        if got is not None:
            return got
        start = max(span.start, lo)
        end = min(span.end if span.end is not None else hi, hi)
        if not span.sync:
            parent = span.parent_for(rid)
            if parent is not None and rid in parent.rids:
                p_start, p_end = effective(parent)
                start, end = max(start, p_start), min(end, p_end)
        window[span.id] = (start, max(start, end))
        return window[span.id]

    edges = []  # (time, opens?, span)
    for span in [root, *spans]:
        start, end = effective(span)
        if end > start:
            edges.append((start, 1, span))
            edges.append((end, 0, span))
    edges.sort(key=lambda edge: (edge[0], edge[1], edge[2].id))

    layers: Dict[str, float] = defaultdict(float)
    open_spans: Dict[int, Span] = {}
    previous = lo
    for at, opens, span in edges:
        if at > previous and open_spans:
            _give(layers, rid, root, open_spans.values(), at - previous)
        previous = max(previous, at)
        if opens:
            open_spans[span.id] = span
        else:
            open_spans.pop(span.id, None)
    return dict(layers)


def _give(layers, rid: int, root: Span, open_spans, seconds: float) -> None:
    owner = max(open_spans, key=lambda s: (s.sync, s.start, s.id))
    held = 0.0  # share of the instant already handed out
    span: Optional[Span] = owner
    while span is not None and held < 1.0:
        share = 1.0 / max(len(span.rids), 1)
        if share > held:
            layers[span.layer] += (share - held) * seconds
            held = share
        span = span.parent_for(rid)
    if held < 1.0:
        layers[root.layer] += (1.0 - held) * seconds
