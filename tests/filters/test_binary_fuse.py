"""Tests for the binary fuse filter."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.filters.binary_fuse import BinaryFuseFilter


def _keys(n: int, prefix: str = "key") -> list[bytes]:
    return [f"{prefix}-{i}".encode() for i in range(n)]


class TestBinaryFuseFilter:
    def test_no_false_negatives(self):
        keys = _keys(2000)
        bf = BinaryFuseFilter.build(keys)
        assert all(k in bf for k in keys)

    def test_fpr_near_1_over_256(self):
        bf = BinaryFuseFilter.build(_keys(5000))
        fpr = bf.measure_fpr(30_000, np.random.default_rng(4))
        assert fpr < 0.012

    def test_bits_per_key_beats_xor_overhead(self):
        fuse_bpk = BinaryFuseFilter.build(_keys(50_000)).bits_per_key()
        assert fuse_bpk < 8 * 1.23  # an xor filter's 1.23n one-byte slots

    def test_small_sets(self):
        for n in (1, 5, 37):
            keys = _keys(n)
            bf = BinaryFuseFilter.build(keys)
            assert all(k in bf for k in keys)


@settings(max_examples=15, deadline=None)
@given(st.sets(st.binary(min_size=1, max_size=16), min_size=1, max_size=200))
def test_property_fuse_filter_complete(keys):
    """Property: binary fuse filters never produce false negatives."""
    bf = BinaryFuseFilter.build(sorted(keys))
    assert all(k in bf for k in keys)
