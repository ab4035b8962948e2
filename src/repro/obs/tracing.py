"""Structured trace spans over an injected clock.

A :class:`Span` is one timed stage of a request — ``frontend.status``,
``replication.read``, ``proxy.ledger_query`` — carrying a
``trace_id``/``span_id``/``parent_id`` triple, free-form tags, and
timestamped events.  A :class:`Tracer` mints spans with sequential ids
and timestamps them from the clock it was constructed with, which in
every simulation is the discrete-event clock: **no wall time ever
enters a trace**, so two runs of the same seeded workload produce
byte-identical span streams (the determinism rule DESIGN.md §8
records).

Two parenting styles coexist because the codebase mixes synchronous
call chains with callback-driven ones:

* ``with tracer.span("proxy.status") as sp:`` — context-manager spans
  maintain an active-span stack, so nested ``with`` blocks (extension →
  proxy → ledger query) parent automatically, and an exception
  propagating through the block still closes the span (tagged
  ``status='error'``) and pops the stack.
* ``sp = tracer.start("frontend.status"); ... sp.end()`` — manual
  spans for callback code, where the span lives in a closure and
  children name their parent explicitly
  (``tracer.start("replication.read", parent=sp)``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

__all__ = ["Span", "Tracer"]


@dataclass(slots=True)
class Span:
    """One timed stage of a request, with tags and events."""

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    started_at: float
    ended_at: Optional[float] = None
    status: str = "ok"  # 'ok' | 'error'
    tags: Dict[str, object] = field(default_factory=dict)
    events: List[Tuple[float, str, Dict[str, object]]] = field(
        default_factory=list
    )
    _tracer: Optional["Tracer"] = field(default=None, repr=False)

    @property
    def finished(self) -> bool:
        return self.ended_at is not None

    @property
    def duration(self) -> float:
        if self.ended_at is None:
            raise ValueError(f"span {self.name!r} has not ended")
        return self.ended_at - self.started_at

    def set_tag(self, **tags) -> "Span":
        self.tags.update(tags)
        return self

    def event(self, name: str, **attrs) -> None:
        """Record a point-in-time annotation (retry, failover, shed)."""
        if self._tracer is None:
            raise ValueError("span is detached from its tracer")
        self.events.append((self._tracer.now(), name, attrs))

    def end(self, **tags) -> "Span":
        """Close the span; idempotent so racing finishers are safe."""
        if self._tracer is None:
            raise ValueError("span is detached from its tracer")
        if self.ended_at is None:
            if tags:
                self.tags.update(tags)
            self._tracer._finish(self)
        return self


class _SpanContext:
    """Context-manager wrapper: stack discipline + error tagging."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        stack = self._tracer._stack
        # Pop back to (and including) our span even if an inner manual
        # span was pushed and leaked — the stack must never be left
        # pointing at a span from an unwound frame.
        while stack:
            top = stack.pop()
            if top is self._span:
                break
        if exc_type is not None:
            self._span.status = "error"
            self._span.set_tag(error=f"{exc_type.__name__}: {exc}")
        self._span.end()
        return False  # never swallow the exception


class Tracer:
    """Mints spans with sequential ids over one injected clock.

    ``retain`` bounds how many finished spans are kept: None (every
    simulation, whose exports need the whole run) keeps all of them; a
    long-running process passes a ring size and keeps only the most
    recent, so its memory does not grow with the requests it served.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        retain: Optional[int] = None,
    ):
        if retain is not None and retain < 1:
            raise ValueError("a span ring must retain at least one span")
        self._clock = clock or (lambda: 0.0)
        self._next_span_id = 1
        self._next_trace_id = 1
        self._stack: List[Span] = []
        self._finished: Deque[Span] = deque(maxlen=retain)
        self._open = 0

    def now(self) -> float:
        return self._clock()

    # -- span creation ------------------------------------------------------------

    def start(
        self, name: str, parent: Optional[Span] = None, **tags
    ) -> Span:
        """Begin a manual span (caller must ``end()`` it).

        ``parent`` defaults to the innermost context-manager span, so
        manual spans opened inside a ``with tracer.span(...)`` block
        still join that trace.
        """
        if parent is None and self._stack:
            parent = self._stack[-1]  # what current() returns, peeked inline
        if parent is None:
            trace_id = self._next_trace_id
            self._next_trace_id += 1
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(
            trace_id=trace_id,
            span_id=self._next_span_id,
            parent_id=parent_id,
            name=name,
            started_at=self._clock(),
            tags=tags,  # ``**tags`` built a fresh dict for this call
            _tracer=self,
        )
        self._next_span_id += 1
        self._open += 1
        return span

    def span(self, name: str, parent: Optional[Span] = None, **tags):
        """Context-manager span: auto-parented, exception-safe."""
        return _SpanContext(self, self.start(name, parent=parent, **tags))

    def current(self) -> Optional[Span]:
        """The innermost active context-manager span, if any."""
        return self._stack[-1] if self._stack else None

    # -- bookkeeping --------------------------------------------------------------

    def _finish(self, span: Span) -> None:
        span.ended_at = self._clock()
        self._open -= 1
        self._finished.append(span)

    @property
    def finished(self) -> List[Span]:
        """Retained finished spans in completion order (the export order)."""
        return list(self._finished)

    @property
    def open_spans(self) -> int:
        return self._open

    def by_name(self, name: str) -> List[Span]:
        return [s for s in self._finished if s.name == name]

    def __len__(self) -> int:
        return len(self._finished)
