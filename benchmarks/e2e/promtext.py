"""A small reader for the Prometheus text exposition ``/metrics`` serves."""

from __future__ import annotations

import re
from typing import Dict, Tuple

Sample = Tuple[str, Tuple[Tuple[str, str], ...]]  # (name, sorted labels)

_LINE = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'([A-Za-z_]\w*)="((?:[^"\\]|\\.)*)"')


def parse(text: str) -> Dict[Sample, float]:
    """``{(name, labels): value}`` for every sample line; comments skipped."""
    samples: Dict[Sample, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _LINE.match(line)
        if match is None:
            raise ValueError(f"not a Prometheus sample line: {line!r}")
        name, labels, value = match.groups()
        key = (name, tuple(sorted(_LABEL.findall(labels or ""))))
        samples[key] = float(value)
    return samples


def total(samples: Dict[Sample, float], name: str, **labels: str) -> float:
    """Sum of every sample of ``name`` whose labels include ``labels``."""
    wanted = set(labels.items())
    return sum(
        value
        for (sample_name, sample_labels), value in samples.items()
        if sample_name == name and wanted <= set(sample_labels)
    )


def delta(before, after, name: str, **labels: str) -> float:
    return total(after, name, **labels) - total(before, name, **labels)
