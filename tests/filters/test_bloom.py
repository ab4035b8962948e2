"""Tests for the Bloom filter."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.filters.bloom import BloomFilter


def _keys(n: int, prefix: str = "key") -> list[bytes]:
    return [f"{prefix}-{i}".encode() for i in range(n)]


class TestMembership:
    def test_no_false_negatives(self):
        bloom = BloomFilter.for_capacity(1000, 0.02)
        keys = _keys(1000)
        bloom.add_many(keys)
        assert all(k in bloom for k in keys)

    def test_empty_filter_contains_nothing(self):
        bloom = BloomFilter(1024, 4)
        assert b"anything" not in bloom

    def test_might_contain_alias(self):
        bloom = BloomFilter(1024, 4)
        bloom.add(b"x")
        assert bloom.might_contain(b"x")

    def test_measured_fpr_near_target(self):
        bloom = BloomFilter.for_capacity(20_000, 0.02)
        bloom.add_many(_keys(20_000))
        fpr = bloom.measure_fpr(20_000, np.random.default_rng(1))
        assert 0.01 < fpr < 0.035  # 2% +/- measurement noise

    def test_estimated_fpr_tracks_measured(self):
        bloom = BloomFilter.for_capacity(10_000, 0.05)
        bloom.add_many(_keys(10_000))
        measured = bloom.measure_fpr(10_000, np.random.default_rng(2))
        assert abs(bloom.estimated_fpr() - measured) < 0.03


class TestGeometry:
    def test_for_capacity_sizing(self):
        bloom = BloomFilter.for_capacity(10_000, 0.02)
        # ~8.14 bits/key at 2%.
        assert 7.5 <= bloom.nbits / 10_000 <= 9.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BloomFilter(100, 0)
        with pytest.raises(ValueError):
            BloomFilter(100, 2, salt=b"way-too-long!")

    def test_fill_ratio_grows(self):
        bloom = BloomFilter(4096, 3)
        before = bloom.fill_ratio()
        bloom.add_many(_keys(100))
        assert bloom.fill_ratio() > before


class TestUnion:
    def test_union_preserves_members(self):
        a = BloomFilter(8192, 4)
        b = BloomFilter(8192, 4)
        a.add_many(_keys(100, "a"))
        b.add_many(_keys(100, "b"))
        merged = BloomFilter.union([a, b])
        assert all(k in merged for k in _keys(100, "a"))
        assert all(k in merged for k in _keys(100, "b"))

    def test_union_geometry_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter(8192, 4).union_with(BloomFilter(4096, 4))
        with pytest.raises(ValueError):
            BloomFilter(8192, 4).union_with(BloomFilter(8192, 5))
        with pytest.raises(ValueError):
            BloomFilter(8192, 4, salt=b"s1").union_with(
                BloomFilter(8192, 4, salt=b"s2")
            )

    def test_union_counts_accumulate(self):
        a, b = BloomFilter(8192, 4), BloomFilter(8192, 4)
        a.add_many(_keys(10, "a"))
        b.add_many(_keys(20, "b"))
        merged = BloomFilter.union([a, b])
        assert merged.num_keys == 30

    def test_union_empty_list_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter.union([])


class TestSerialization:
    def test_bytes_roundtrip(self):
        bloom = BloomFilter(4096, 3)
        bloom.add_many(_keys(50))
        restored = BloomFilter.from_bytes(4096, 3, bloom.to_bytes())
        assert all(k in restored for k in _keys(50))

    def test_copy_independent(self):
        bloom = BloomFilter(4096, 3)
        clone = bloom.copy()
        clone.add(b"only-in-clone")
        assert b"only-in-clone" not in bloom


@settings(max_examples=20, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=24), min_size=1, max_size=100))
def test_property_no_false_negatives(keys):
    """Property: every added key is always reported present."""
    bloom = BloomFilter(4096, 5)
    bloom.add_many(keys)
    assert all(k in bloom for k in keys)


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=50),
    st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=50),
)
def test_property_union_is_superset(keys_a, keys_b):
    """Property: the union reports every key either side held."""
    a, b = BloomFilter(4096, 4), BloomFilter(4096, 4)
    a.add_many(keys_a)
    b.add_many(keys_b)
    merged = BloomFilter.union([a, b])
    assert all(k in merged for k in keys_a + keys_b)


# -- scalar membership against the position oracle --------------------------------
#
# ``key in bloom`` walks the Kirsch–Mitzenmacher positions on Python
# ints; ``_positions`` (wrapping uint64 numpy arithmetic, what ``add``
# and ``query_many`` set and read) is the reference it must equal.


def _oracle(bloom: BloomFilter, key: bytes) -> bool:
    return bool(bloom.bits.get_many(bloom._positions(key)).all())


def _filled(nbits: int, num_hashes: int, fill: float, seed: int) -> BloomFilter:
    bloom = BloomFilter(nbits, num_hashes)
    chosen = np.random.default_rng(seed).random(nbits) < fill
    bloom.bits.set_many(np.flatnonzero(chosen))
    return bloom


_GEOMETRY = dict(
    # 1, 63, 64, 65, ...: sizes around and off the 64-bit word boundary.
    nbits=st.one_of(st.integers(1, 130), st.integers(131, 100_000)),
    num_hashes=st.integers(1, 16),
    fill=st.sampled_from([0.0, 0.3, 0.7, 0.95, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=150, deadline=None)
@given(keys=st.lists(st.binary(max_size=24), min_size=1, max_size=40), **_GEOMETRY)
def test_property_scalar_membership_equals_the_position_oracle(
    keys, nbits, num_hashes, fill, seed
):
    bloom = _filled(nbits, num_hashes, fill, seed)
    bloom.add_many(keys[::2])
    for key in keys:
        assert (key in bloom) == _oracle(bloom, key)


@settings(max_examples=300, deadline=None)
@given(
    h1=st.integers(0, 2**64 - 1),
    h2=st.integers(0, 2**64 - 1),  # i * h2 wraps 2**64 for most draws
    **_GEOMETRY,
)
def test_property_scalar_positions_wrap_like_uint64(
    h1, h2, nbits, num_hashes, fill, seed
):
    from unittest import mock

    from repro.filters import bloom as module

    bloom = _filled(nbits, num_hashes, fill, seed)
    with mock.patch.object(module, "_hash_pair", return_value=(h1, h2)):
        assert (b"key" in bloom) == _oracle(bloom, b"key")
