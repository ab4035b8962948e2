"""The :class:`Observability` facade instrumented components hold.

One object bundles the metrics registry and the tracer behind the tiny
surface the instrumentation sites use (``obs.counter(...)``,
``obs.span(...)``, ``obs.start(...)``), so a component needs exactly
one nullable ``obs=`` constructor argument and one ``if self.obs is
not None`` guard per site — the uninstrumented hot path stays
allocation-free.

The clock is injected once, here, and shared by every span and
timestamped event: in simulations it is the discrete-event clock, so
exports are deterministic (see DESIGN.md §8).  Components never pass
their own clocks to the observability layer — one run, one time base.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.obs.export import prometheus_text, spans_to_jsonl
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracing import Span, Tracer

__all__ = ["Observability"]


class Observability:
    """Metrics + tracing over one injected clock.

    ``retain_spans`` is the tracer's finished-span ring size (None, the
    default, keeps every span — see :class:`~repro.obs.tracing.Tracer`).
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        retain_spans: Optional[int] = None,
    ):
        self._clock = clock or (lambda: 0.0)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self._clock, retain=retain_spans)

    def now(self) -> float:
        return self._clock()

    # -- metrics shorthand --------------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self.metrics.gauge(name, **labels)

    def histogram(
        self, name: str, buckets: Optional[Iterable[float]] = None, **labels
    ) -> Histogram:
        return self.metrics.histogram(name, buckets=buckets, **labels)

    # -- tracing shorthand --------------------------------------------------------

    def span(self, name: str, parent: Optional[Span] = None, **tags):
        """Context-manager span (sync call chains)."""
        return self.tracer.span(name, parent=parent, **tags)

    def start(self, name: str, parent: Optional[Span] = None, **tags) -> Span:
        """Manual span (callback chains); caller must ``end()`` it."""
        return self.tracer.start(name, parent=parent, **tags)

    @property
    def spans(self) -> List[Span]:
        return self.tracer.finished

    # -- exports ------------------------------------------------------------------

    def export_spans_jsonl(self) -> str:
        return spans_to_jsonl(self.tracer.finished)

    def export_prometheus(self) -> str:
        return prometheus_text(self.metrics)
