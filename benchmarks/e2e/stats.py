"""Percentiles, window slices and the run-to-run spread."""

from __future__ import annotations

from bisect import bisect_right
from statistics import median, quantiles
from typing import List, NamedTuple, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Slice(NamedTuple):
    samples: list  # the requests whose reply arrived in this slice
    seconds: float
    server_cpu: float  # server CPU seconds spent during the slice


def slices(samples: Sequence, marks: Sequence[Tuple[float, float]]) -> List[Slice]:
    """Cut a window at ``marks`` = [(time, server cpu seconds so far), ...].

    The marks are the CPU sampler's own timestamps, so each slice knows
    exactly the CPU spent in it.  Empty slices are left out, and so is
    whatever completes after the last mark.
    """
    groups: List[list] = [[] for _ in marks[1:]]
    times = [at for at, _ in marks]
    for sample in samples:
        index = bisect_right(times, sample.end) - 1
        if 0 <= index < len(groups):
            groups[index].append(sample)
    return [
        Slice(rows, t1 - t0, cpu1 - cpu0)
        for rows, (t0, cpu0), (t1, cpu1) in zip(groups, marks, marks[1:])
        if rows
    ]


def spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as the benchmark driver takes them."""
    mid = median(values)
    if len(values) < 2:
        return mid, mid, mid, 0.0
    q1, _, q3 = quantiles(values, n=4)
    return mid, q1, q3, (q3 - q1) / mid if mid else 0.0
