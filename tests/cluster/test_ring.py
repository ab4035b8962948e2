"""Consistent-hash ring: units plus hypothesis rebalancing properties."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import DEFAULT_VNODES, HashRing, RingError


def _keys(count: int, tag: str = "key") -> list:
    return [f"{tag}:{i}".encode("utf-8") for i in range(count)]


class TestRingBasics:
    def test_construction_is_order_insensitive(self):
        a = HashRing(["alpha", "beta", "gamma"])
        b = HashRing(["gamma", "alpha", "beta"])
        keys = _keys(200)
        assert a.assignment(keys) == b.assignment(keys)

    def test_primary_is_first_replica(self):
        ring = HashRing([f"s{i}" for i in range(5)])
        for key in _keys(50):
            assert ring.primary(key) == ring.replicas(key, 3)[0]

    def test_replicas_are_distinct_shards(self):
        ring = HashRing([f"s{i}" for i in range(5)])
        for key in _keys(100):
            replicas = ring.replicas(key, 3)
            assert len(replicas) == len(set(replicas)) == 3

    def test_too_many_replicas_rejected(self):
        ring = HashRing(["a", "b"])
        with pytest.raises(RingError):
            ring.replicas(b"key", 3)
        with pytest.raises(RingError):
            ring.replicas(b"key", 0)

    def test_membership_errors(self):
        ring = HashRing(["a"])
        with pytest.raises(RingError):
            ring.add("a")
        with pytest.raises(RingError):
            ring.add("")
        with pytest.raises(RingError):
            ring.remove("missing")
        with pytest.raises(RingError):
            HashRing(vnodes=0)

    def test_shard_ids_and_contains(self):
        ring = HashRing(["b", "a"])
        assert ring.shard_ids == ["a", "b"]
        assert "a" in ring and "z" not in ring
        assert len(ring) == 2

    def test_load_share_is_roughly_balanced(self):
        ring = HashRing([f"s{i}" for i in range(4)])
        owned = Counter(ring.assignment(_keys(4000)).values())
        assert sorted(owned) == ring.shard_ids
        for share in (count / 4000 for count in owned.values()):
            # vnodes=64 keeps imbalance well under 2x.
            assert 0.10 < share < 0.45

    def test_remove_only_moves_the_removed_shards_keys(self):
        ring = HashRing([f"s{i}" for i in range(5)])
        keys = _keys(500)
        before = ring.assignment(keys)
        ring.remove("s2")
        after = ring.assignment(keys)
        for key in keys:
            if before[key] != "s2":
                assert after[key] == before[key]
            else:
                assert after[key] != "s2"

    def test_default_vnodes_exported(self):
        assert HashRing(["a"]).vnodes == DEFAULT_VNODES


# -- hypothesis properties (satellite: rebalancing invariants) -----------------

SHARD_COUNTS = st.integers(min_value=2, max_value=8)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    num_shards=SHARD_COUNTS,
    joiner=st.integers(min_value=0, max_value=10_000),
    key_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_join_moves_about_one_nth(num_shards, joiner, key_seed):
    """Property: a join moves ~1/(N+1) of keys, all of them to the joiner."""
    keys = _keys(400, tag=str(key_seed))
    ring = HashRing([f"s{i}" for i in range(num_shards)])
    before = ring.assignment(keys)
    new_id = f"joiner-{joiner}"
    ring.add(new_id)
    after = ring.assignment(keys)
    moved = [key for key in keys if before[key] != after[key]]
    # Invariant: the only possible new owner is the joining shard.
    assert all(after[key] == new_id for key in moved)
    # Magnitude: ~1/(N+1) within generous sampling + vnode tolerance.
    expected = len(keys) / (num_shards + 1)
    assert expected / 4 <= len(moved) <= expected * 2.5


@settings(max_examples=25, deadline=None, derandomize=True)
@given(num_shards=st.integers(min_value=3, max_value=8), key_seed=st.integers(0, 2**32 - 1))
def test_property_leave_moves_only_departed_keys(num_shards, key_seed):
    """Property: a leave re-homes exactly the departed shard's keys."""
    keys = _keys(300, tag=str(key_seed))
    ids = [f"s{i}" for i in range(num_shards)]
    ring = HashRing(ids)
    before = ring.assignment(keys)
    victim = ids[key_seed % num_shards]
    ring.remove(victim)
    after = ring.assignment(keys)
    moved = {key for key in keys if before[key] != after[key]}
    assert moved == {key for key in keys if before[key] == victim}
    assert victim not in set(after.values())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    num_shards=st.integers(min_value=3, max_value=9),
    count=st.integers(min_value=1, max_value=3),
    key=st.binary(min_size=1, max_size=24),
)
def test_property_every_key_gets_exactly_r_distinct_replicas(num_shards, count, key):
    """Property: replicas(key, R) always yields R distinct known shards."""
    ids = [f"s{i}" for i in range(num_shards)]
    ring = HashRing(ids)
    replicas = ring.replicas(key, count)
    assert len(replicas) == count
    assert len(set(replicas)) == count
    assert set(replicas) <= set(ids)
    assert replicas[0] == ring.primary(key)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(num_shards=SHARD_COUNTS, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_ring_deterministic_under_seed(num_shards, seed):
    """Property: placement depends only on the shard *set*, never order."""
    ids = [f"s{i}" for i in range(num_shards)]
    shuffled = list(ids)
    np.random.default_rng(seed).shuffle(shuffled)
    keys = _keys(100, tag=str(seed))
    one, two = HashRing(ids), HashRing(shuffled)
    assert one.assignment(keys) == two.assignment(keys)
    for key in keys[:20]:
        assert one.replicas(key, min(3, num_shards)) == two.replicas(
            key, min(3, num_shards)
        )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    num_shards=st.integers(min_value=4, max_value=9),
    count=st.integers(min_value=1, max_value=3),
    key=st.binary(min_size=1, max_size=24),
)
def test_property_replica_lists_are_prefixes_and_ignore_unrelated_shards(
    num_shards, count, key
):
    """Property: a shorter replica list is a prefix of a longer one, and a
    shard outside a key's list can leave or join without reordering it."""
    ids = [f"s{i}" for i in range(num_shards)]
    ring = HashRing(ids)
    full = ring.replicas(key, num_shards)
    assert sorted(full) == ids  # every shard once: all distinct
    for j in range(1, num_shards + 1):
        assert ring.replicas(key, j) == full[:j]
    chosen = full[:count]
    bystander = full[-1]  # count <= 3 < num_shards: never among `chosen`
    ring.remove(bystander)
    assert ring.replicas(key, count) == chosen
    ring.add(bystander)
    assert ring.replicas(key, num_shards) == full
    ring.add("newcomer")
    widened = ring.replicas(key, num_shards + 1)
    assert [shard for shard in widened if shard != "newcomer"] == full
