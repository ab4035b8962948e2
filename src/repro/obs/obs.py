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

from typing import Callable, List, Optional

from repro.obs.export import prometheus_text, spans_to_jsonl
from repro.obs.metrics import MetricsRegistry
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
        self.now = clock or (lambda: 0.0)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self.now, retain=retain_spans)
        # The shorthand is the clock and the registry's and the tracer's
        # own bound methods, so a site's lookup is one call, not two.
        self.counter = self.metrics.counter
        self.gauge = self.metrics.gauge
        self.histogram = self.metrics.histogram
        self.span = self.tracer.span  # context manager (sync call chains)
        self.start = self.tracer.start  # manual span; the caller ``end()``s it

    @property
    def spans(self) -> List[Span]:
        return self.tracer.finished

    # -- exports ------------------------------------------------------------------

    def export_spans_jsonl(self) -> str:
        return spans_to_jsonl(self.tracer.finished)

    def export_prometheus(self) -> str:
        return prometheus_text(self.metrics)
