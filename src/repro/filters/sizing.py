"""Analytic Bloom filter sizing — the math behind the paper's section 4.4.

The paper claims: "a 1GB filter would provide a 2% false-hit rate with a
population of 1 billion photos, thereby lessening the load on ledgers by
a factor of fifty.  Similarly, a 100GB Bloom filter would provide a
similar error rate for a population of 100 billion photos."

These functions make the claim checkable:

* :func:`bloom_false_positive_rate` -- exact expected FPR for (m, n, k).
* :func:`bloom_bits_for_fpr` -- optimal m for (n, target FPR).
* :func:`load_reduction_factor` -- ledger-query reduction achieved by a
  front filter, as a function of FPR and the fraction of viewed photos
  that are actually claimed-and-revoked.
* :func:`paper_scaling_table` -- the 1 GB / 100 GB rows as the paper
  states them, computed rather than asserted.

The analytic model is cross-validated against real measured filters in
``tests/filters/test_sizing.py`` and ``benchmarks/bench_e4_bloom_sizing.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

__all__ = [
    "bloom_false_positive_rate",
    "bloom_bits_for_fpr",
    "bloom_optimal_hashes",
    "load_reduction_factor",
    "ScalingRow",
    "paper_scaling_table",
]

GIGABYTE = 10**9  # the paper speaks in decimal GB
BITS_PER_BYTE = 8


def bloom_false_positive_rate(nbits: int, num_keys: int, num_hashes: int) -> float:
    """Expected FPR of a Bloom filter: ``(1 - e^{-kn/m})^k``.

    This is the classic approximation, accurate to within measurement
    noise for the sizes used here.
    """
    if nbits <= 0 or num_hashes <= 0:
        raise ValueError("nbits and num_hashes must be positive")
    if num_keys < 0:
        raise ValueError("num_keys must be non-negative")
    if num_keys == 0:
        return 0.0
    fill = 1.0 - math.exp(-num_hashes * num_keys / nbits)
    return fill**num_hashes


def bloom_optimal_hashes(nbits: int, num_keys: int) -> int:
    """Optimal hash count ``k = (m/n) ln 2``, at least 1."""
    if num_keys <= 0:
        return 1
    return max(1, round((nbits / num_keys) * math.log(2)))


def bloom_bits_for_fpr(num_keys: int, target_fpr: float) -> int:
    """Optimal filter size ``m = -n ln p / (ln 2)^2`` for a target FPR."""
    if not 0.0 < target_fpr < 1.0:
        raise ValueError("target_fpr must be in (0, 1)")
    if num_keys <= 0:
        raise ValueError("num_keys must be positive")
    m = -num_keys * math.log(target_fpr) / (math.log(2) ** 2)
    return max(64, int(math.ceil(m)))


def load_reduction_factor(fpr: float, revoked_view_fraction: float = 0.0) -> float:
    """Ledger-query reduction factor achieved by a front filter.

    Without a filter, every view of a *labeled* photo queries a ledger.
    With a filter, queries happen only for (a) true hits -- photos that
    genuinely appear in some ledger's claimed set and are being checked,
    which the paper argues is the rare case for *viewed* photos via the
    "vast majority of viewed photos are not revoked" assumption -- and
    (b) false hits at rate ``fpr``.

    ``revoked_view_fraction`` is the fraction of views that land on
    claimed-and-filter-resident photos (true hits).  With the paper's
    assumption that it is ~0, the reduction is simply ``1/fpr`` -- and
    1/0.02 = 50, the paper's "factor of fifty".
    """
    if not 0.0 < fpr <= 1.0:
        raise ValueError("fpr must be in (0, 1]")
    if not 0.0 <= revoked_view_fraction <= 1.0:
        raise ValueError("revoked_view_fraction must be in [0, 1]")
    query_rate = revoked_view_fraction + (1.0 - revoked_view_fraction) * fpr
    return 1.0 / query_rate


@dataclass(frozen=True)
class ScalingRow:
    """One row of the paper's scaling argument."""

    filter_gb: float
    population: int
    optimal_hashes: int
    false_positive_rate: float
    load_reduction: float


def paper_scaling_table(extra_rows: bool = True) -> List[ScalingRow]:
    """Compute the section-4.4 scaling table.

    Rows: the paper's two data points (1 GB @ 1e9, 100 GB @ 1e11) and,
    when ``extra_rows``, intermediate points showing the linear scaling
    the paper implies (bits-per-key constant => FPR constant).
    """
    points = [(1, 10**9), (100, 10**11)]
    if extra_rows:
        points = [(1, 10**9), (10, 10**10), (100, 10**11), (1000, 10**12)]
        points.sort()
    rows = []
    for gb, population in points:
        nbits = gb * GIGABYTE * BITS_PER_BYTE
        k = bloom_optimal_hashes(nbits, population)
        fpr = bloom_false_positive_rate(nbits, population, k)
        rows.append(
            ScalingRow(
                filter_gb=float(gb),
                population=population,
                optimal_hashes=k,
                false_positive_rate=fpr,
                load_reduction=load_reduction_factor(fpr),
            )
        )
    return rows
