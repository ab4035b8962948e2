"""Probabilistic membership filters for the IRS bootstrap phase.

Section 4.4 of the paper: ledgers publish Bloom filters of their claimed
photos; proxies OR the filters of all ledgers and consult the result
before querying any ledger, cutting ledger load by roughly the inverse
of the false-positive rate ("a factor of fifty" at 2% FPR).  Updates
ship hourly with delta encoding.

This package implements the full filter toolbox:

* :mod:`repro.filters.bitarray` -- numpy-backed bit array substrate.
* :mod:`repro.filters.bloom` -- standard Bloom filter with union,
  serialization and analytic FPR estimation.
* :mod:`repro.filters.binary_fuse` -- Binary fuse filter (Graf & Lemire
  2022), one of the "recent advances" the paper cites [16].
* :mod:`repro.filters.delta` -- delta encoding of filter updates.
* :mod:`repro.filters.sizing` -- exact analytic size/FPR relationships
  used to reproduce the paper's 1 GB @ 1 B photos => 2% claim.
"""

from repro.filters.bitarray import BitArray
from repro.filters.bloom import BloomFilter
from repro.filters.binary_fuse import BinaryFuseFilter
from repro.filters.delta import FilterDelta, encode_delta, apply_delta
from repro.filters.sizing import (
    bloom_false_positive_rate,
    bloom_bits_for_fpr,
    bloom_optimal_hashes,
    load_reduction_factor,
    paper_scaling_table,
)

__all__ = [
    "BitArray",
    "BloomFilter",
    "BinaryFuseFilter",
    "FilterDelta",
    "encode_delta",
    "apply_delta",
    "bloom_false_positive_rate",
    "bloom_bits_for_fpr",
    "bloom_optimal_hashes",
    "load_reduction_factor",
    "paper_scaling_table",
]
