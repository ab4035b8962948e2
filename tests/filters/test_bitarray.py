"""Tests for the numpy-backed bit array."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.filters.bitarray import BitArray


class TestBasics:
    def test_starts_empty(self):
        bits = BitArray(100)
        assert bits.count() == 0
        assert bits.fill_ratio() == 0.0

    def test_set_get_clear(self):
        bits = BitArray(100)
        bits.set(5)
        assert bits.get(5)
        assert not bits.get(6)
        bits.clear(5)
        assert not bits.get(5)

    def test_boundary_bits(self):
        bits = BitArray(65)  # crosses a word boundary
        bits.set(0)
        bits.set(63)
        bits.set(64)
        assert bits.count() == 3
        assert bits.get(64)

    def test_out_of_range_rejected(self):
        bits = BitArray(10)
        with pytest.raises(IndexError):
            bits.set(10)
        with pytest.raises(IndexError):
            bits.get(-1)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            BitArray(0)

    def test_nbytes_rounds_to_words(self):
        assert BitArray(1).nbytes == 8
        assert BitArray(64).nbytes == 8
        assert BitArray(65).nbytes == 16


class TestBulkOps:
    def test_set_many_and_get_many(self):
        bits = BitArray(200)
        indices = [0, 3, 64, 127, 199]
        bits.set_many(indices)
        assert bits.get_many(indices).all()
        assert not bits.get_many([1, 2, 100]).any()
        assert bits.count() == 5

    def test_set_many_duplicates_idempotent(self):
        bits = BitArray(50)
        bits.set_many([7, 7, 7])
        assert bits.count() == 1

    def test_set_many_empty(self):
        bits = BitArray(50)
        bits.set_many([])
        assert bits.count() == 0

    def test_set_many_out_of_range(self):
        bits = BitArray(50)
        with pytest.raises(IndexError):
            bits.set_many([10, 50])


class TestWholeArrayOps:
    def test_union(self):
        a, b = BitArray(100), BitArray(100)
        a.set_many([1, 2, 3])
        b.set_many([3, 4, 5])
        a.union_with(b)
        assert a.count() == 5

    def test_xor_and_changed_indices(self):
        a, b = BitArray(130), BitArray(130)
        a.set_many([1, 64, 129])
        b.set_many([1, 65])
        changed = a.changed_indices(b)
        assert sorted(changed.tolist()) == [64, 65, 129]

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BitArray(10).union_with(BitArray(11))


class TestSerialization:
    def test_roundtrip(self):
        bits = BitArray(100)
        bits.set_many([0, 50, 99])
        restored = BitArray.from_bytes(100, bits.to_bytes())
        assert restored == bits

    def test_copy_independent(self):
        bits = BitArray(50)
        bits.set(1)
        clone = bits.copy()
        clone.set(2)
        assert not bits.get(2)

    def test_tail_masking(self):
        # Bits beyond nbits in the last word must stay zero.
        words = np.full(1, np.uint64(0xFFFFFFFFFFFFFFFF))
        bits = BitArray.from_words(10, words)
        assert bits.count() == 10


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=300),
    st.data(),
)
def test_property_count_matches_set(nbits, data):
    """Property: count() equals the number of distinct set indices."""
    indices = data.draw(
        st.lists(st.integers(min_value=0, max_value=nbits - 1), max_size=50)
    )
    bits = BitArray(nbits)
    bits.set_many(indices) if indices else None
    assert bits.count() == len(set(indices))
