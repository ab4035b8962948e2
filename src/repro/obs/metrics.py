"""Deterministic metric primitives: counters, gauges, histograms.

The registry is the write side of the observability layer
(:mod:`repro.obs`): instrumented components look up a metric by name
plus labels and mutate it in place.  Three rules keep the layer honest:

* **Determinism** — metrics hold pure accumulations of what the caller
  observed; nothing here reads a clock or an RNG.  Two runs of the same
  seeded workload produce identical registries (the regression test in
  ``tests/obs`` enforces byte-identical exports).
* **Fixed buckets** — histograms are declared with their bucket upper
  bounds up front (Prometheus-style cumulative-le semantics), so
  exports never depend on the order or range of observations.
* **No dependencies** — plain Python only; the registry must be
  importable from the innermost layers (cluster, resilience) without
  dragging anything along.

Identity is ``(name, sorted labels)``; lookups go through an index of
the labels in the order the call site passed them, so only a first
lookup sorts.  Registering the same name with a different metric type
(or a histogram with different buckets) is a programming error and
raises immediately.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Handles",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default histogram bounds for request latencies, in seconds.  Spans
#: the sub-millisecond LAN hop up through multi-second chaos stalls.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Dict[str, object]) -> LabelItems:
    if not labels:
        return ()  # most hot-path lookups are unlabelled
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge instead")
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depths, open breakers)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with cumulative-``le`` export semantics.

    ``buckets`` are the finite upper bounds, strictly increasing; an
    implicit ``+Inf`` bucket catches the rest.  ``counts[i]`` is the
    number of observations ``<= buckets[i]`` minus those in earlier
    buckets (i.e. per-bucket, not cumulative, internally); exporters
    accumulate.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "total", "count")

    def __init__(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        labels: LabelItems = (),
    ):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram buckets must be strictly increasing")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # final slot is +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` (a batch answered
        together shares one measurement)."""
        self.counts[bisect.bisect_left(self.buckets, value)] += count
        self.total += value * count
        self.count += count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cumulative(self) -> List[int]:
        """Counts as cumulative ``<= bound`` values, +Inf last."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile from bucket boundaries.

        Returns the upper bound of the bucket holding the target rank
        (the last finite bound for the +Inf bucket) — a conservative,
        deterministic estimate that never interpolates, so identical
        runs report identical values.
        """
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if self.count == 0:
            return 0.0
        rank = max(1, int(round(q / 100.0 * self.count)))
        running = 0
        for i, c in enumerate(self.counts):
            running += c
            if running >= rank:
                return self.buckets[min(i, len(self.buckets) - 1)]
        return self.buckets[-1]  # pragma: no cover - rank <= count


class Handles(dict):
    """A hot site's metrics, each looked up once, at its first use.

    ``Handles(registry.counter)[name]`` is ``registry.counter(name)``, and
    ``Handles(registry.counter, name, label)[value]`` is
    ``registry.counter(name, **{label: value})``: a repeat use is one dict
    hit, and a metric still first appears on ``/metrics`` when first used.
    """

    __slots__ = ("_make", "_name", "_label")

    def __init__(self, make, name: Optional[str] = None, label: Optional[str] = None):
        self._make, self._name, self._label = make, name, label

    def __missing__(self, key):
        if self._label is None:
            metric = self[key] = self._make(key)
        else:
            metric = self[key] = self._make(self._name, **{self._label: key})
        return metric


class MetricsRegistry:
    """Get-or-create store of metrics, keyed by name and labels."""

    def __init__(self):
        self._metrics: Dict[Tuple[str, LabelItems], object] = {}
        # Keyed by the labels as the call site spelled them, so a repeat
        # lookup neither stringifies nor sorts; every spelling of one
        # metric (label order, 1 vs "1") maps to the object its
        # canonical key holds in ``_metrics``.
        self._index: Dict[tuple, object] = {}
        self._types: Dict[str, type] = {}
        self._buckets: Dict[str, Tuple[float, ...]] = {}

    def _get(self, cls: type, name: str, labels: Dict[str, object], **kwargs):
        """The slow path: a first lookup of this spelling, or a clash."""
        seen = self._types.get(name)
        if seen is not None and seen is not cls:
            raise ValueError(
                f"metric {name!r} already registered as {seen.__name__}, "
                f"cannot re-register as {cls.__name__}"
            )
        key = (name, _label_items(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels=key[1], **kwargs)
            self._metrics[key] = metric
            self._types[name] = cls
        self._index[(name, *labels.items())] = metric
        return metric

    # A repeat lookup is one hit on the index, checked inline.

    def counter(self, name: str, **labels) -> Counter:
        m = self._index.get((name, *labels.items()))
        return m if m.__class__ is Counter else self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        m = self._index.get((name, *labels.items()))
        return m if m.__class__ is Gauge else self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Iterable[float]] = None,
        **labels,
    ) -> Histogram:
        metric = self._index.get((name, *labels.items()))
        if metric.__class__ is Histogram and buckets is None:
            return metric
        seen = self._buckets.get(name)
        bounds = seen or DEFAULT_LATENCY_BUCKETS
        if buckets is not None:
            bounds = tuple(float(b) for b in buckets)
            if seen is not None and seen != bounds:
                raise ValueError(
                    f"histogram {name!r} already registered with buckets {seen}"
                )
        metric = self._get(Histogram, name, labels, buckets=bounds)
        self._buckets[name] = metric.buckets
        return metric

    # -- read side ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def all_metrics(self) -> List[object]:
        """Every metric, sorted by (name, labels) — the export order."""
        return [self._metrics[key] for key in sorted(self._metrics)]

    def counters(self) -> List[Counter]:
        return [m for m in self.all_metrics() if isinstance(m, Counter)]

    def gauges(self) -> List[Gauge]:
        return [m for m in self.all_metrics() if isinstance(m, Gauge)]

    def histograms(self) -> List[Histogram]:
        return [m for m in self.all_metrics() if isinstance(m, Histogram)]

    def get(self, name: str, **labels):
        """Fetch a metric if it exists (test/report convenience)."""
        return self._metrics.get((name, _label_items(labels)))

    def value(self, name: str, **labels) -> float:
        """A counter/gauge's value, or 0.0 when never touched."""
        metric = self.get(name, **labels)
        return metric.value if metric is not None else 0.0

    def total(self, name: str) -> float:
        """Sum of a counter family's values across all label sets."""
        return sum(
            m.value
            for (n, _), m in self._metrics.items()
            if n == name and isinstance(m, Counter)
        )
