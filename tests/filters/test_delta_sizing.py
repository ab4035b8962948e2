"""Tests for delta encoding and the analytic sizing model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.filters.bloom import BloomFilter
from repro.filters.delta import DeltaError, apply_delta, encode_delta
from repro.filters.sizing import (
    bloom_bits_for_fpr,
    bloom_false_positive_rate,
    bloom_optimal_hashes,
    load_reduction_factor,
    paper_scaling_table,
)


def _keys(n: int, prefix: str = "key") -> list[bytes]:
    return [f"{prefix}-{i}".encode() for i in range(n)]


class TestDelta:
    def _pair(self, base_keys: int, extra_keys: int):
        old = BloomFilter(1 << 16, 4)
        old.add_many(_keys(base_keys))
        new = old.copy()
        new.add_many(_keys(extra_keys, "extra"))
        return old, new

    def test_sparse_delta_roundtrip(self):
        old, new = self._pair(2000, 30)
        delta = encode_delta(old, new, 1, 2)
        assert delta.kind == "sparse"
        restored = apply_delta(old, delta, 1)
        assert all(k in restored for k in _keys(30, "extra"))
        assert restored.bits == new.bits

    def test_small_delta_is_small(self):
        old, new = self._pair(2000, 10)
        delta = encode_delta(old, new, 1, 2)
        assert delta.nbytes < old.nbytes / 10

    def test_huge_change_falls_back_to_full(self):
        old = BloomFilter(1 << 12, 4)
        new = BloomFilter(1 << 12, 4)
        new.add_many(_keys(5000))
        delta = encode_delta(old, new, 1, 2)
        assert delta.kind == "full"
        restored = apply_delta(old, delta, 1)
        assert restored.bits == new.bits

    def test_empty_delta(self):
        old, _ = self._pair(100, 0)
        delta = encode_delta(old, old, 3, 4)
        restored = apply_delta(old, delta, 3)
        assert restored.bits == old.bits
        assert delta.num_changed_bits == 0

    def test_version_mismatch_rejected(self):
        old, new = self._pair(100, 5)
        delta = encode_delta(old, new, 1, 2)
        with pytest.raises(DeltaError):
            apply_delta(old, delta, 99)

    def test_geometry_mismatch_rejected(self):
        old, new = self._pair(100, 5)
        delta = encode_delta(old, new, 1, 2)
        other = BloomFilter(1 << 10, 4)
        with pytest.raises(DeltaError):
            apply_delta(other, delta, 1)

    def test_incompatible_filters_rejected(self):
        with pytest.raises(DeltaError):
            encode_delta(BloomFilter(128, 2), BloomFilter(256, 2), 1, 2)

    def test_delta_handles_cleared_bits(self):
        """Revoked-set filters shrink when owners unrevoke; deltas must
        carry cleared bits too (XOR semantics)."""
        dense = BloomFilter(1 << 12, 3)
        dense.add_many(_keys(200))
        sparse = BloomFilter(1 << 12, 3)
        sparse.add_many(_keys(50))
        delta = encode_delta(dense, sparse, 1, 2)
        restored = apply_delta(dense, delta, 1)
        assert restored.bits == sparse.bits


class TestSizingMath:
    def test_fpr_formula_basic(self):
        # 8 bits/key with optimal k ~ 5.5 -> ~2.2%.
        fpr = bloom_false_positive_rate(8_000_000, 1_000_000, 6)
        assert 0.015 < fpr < 0.03

    def test_bits_for_fpr_inverts(self):
        nbits = bloom_bits_for_fpr(1_000_000, 0.01)
        k = bloom_optimal_hashes(nbits, 1_000_000)
        achieved = bloom_false_positive_rate(nbits, 1_000_000, k)
        assert achieved <= 0.012

    def test_optimal_hashes_formula(self):
        # m/n = 8 -> k = round(8 ln 2) = 6.
        assert bloom_optimal_hashes(8000, 1000) == 6

    def test_zero_keys_gives_zero_fpr(self):
        assert bloom_false_positive_rate(1000, 0, 4) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bloom_false_positive_rate(0, 10, 2)
        with pytest.raises(ValueError):
            bloom_bits_for_fpr(100, 1.5)
        with pytest.raises(ValueError):
            load_reduction_factor(0.0)

    def test_load_reduction_pure_fpr(self):
        assert load_reduction_factor(0.02) == pytest.approx(50.0)

    def test_load_reduction_with_true_hits(self):
        # 1% of views are genuinely revoked: those always query.
        factor = load_reduction_factor(0.02, revoked_view_fraction=0.01)
        assert factor == pytest.approx(1.0 / (0.01 + 0.99 * 0.02))

    def test_analytic_matches_measured(self):
        """The analytic model must track a real filter (the basis for
        extrapolating to the paper's 1 GB / 100 GB points)."""
        n = 50_000
        bloom = BloomFilter.for_capacity(n, 0.02)
        bloom.add_many(_keys(n))
        analytic = bloom_false_positive_rate(bloom.nbits, n, bloom.num_hashes)
        measured = bloom.measure_fpr(50_000, np.random.default_rng(8))
        assert abs(analytic - measured) < 0.01


class TestPaperScalingTable:
    def test_1gb_at_1b_photos_is_2_percent(self):
        """The paper's headline claim: 1 GB filter, 1 B photos, ~2% FPR."""
        rows = {r.population: r for r in paper_scaling_table()}
        row = rows[10**9]
        assert row.filter_gb == 1.0
        assert 0.015 <= row.false_positive_rate <= 0.025

    def test_100gb_at_100b_photos_same_rate(self):
        rows = {r.population: r for r in paper_scaling_table()}
        small, large = rows[10**9], rows[10**11]
        assert large.filter_gb == 100.0
        assert large.false_positive_rate == pytest.approx(
            small.false_positive_rate, rel=0.05
        )

    def test_load_reduction_near_fifty(self):
        """"Lessening the load on ledgers by a factor of fifty"."""
        rows = {r.population: r for r in paper_scaling_table()}
        assert 40 <= rows[10**9].load_reduction <= 55


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=100, max_value=5000),
    st.integers(min_value=0, max_value=100),
)
def test_property_delta_roundtrip(base, extra):
    """Property: apply(encode(old, new)) == new for any growth."""
    old = BloomFilter(1 << 13, 3)
    old.add_many(_keys(base))
    new = old.copy()
    new.add_many(_keys(extra, "x"))
    delta = encode_delta(old, new, 1, 2)
    assert apply_delta(old, delta, 1).bits == new.bits
