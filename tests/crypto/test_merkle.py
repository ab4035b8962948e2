"""Tests for the Merkle transparency log."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.merkle import MerkleConsistencyError, MerkleLog


class Entries:
    """A growing entry list and the Merkle log that views it."""

    def __init__(self, entries=()):
        self.entries = []
        self.log = MerkleLog(self.entries)
        for entry in entries:
            self.add(entry)

    def add(self, entry: bytes) -> int:
        self.entries.append(entry)
        return self.log.append()


def _filled(n: int) -> Entries:
    return Entries(f"entry-{i}".encode() for i in range(n))


def _filled_log(n: int) -> MerkleLog:
    return _filled(n).log


class TestBasics:
    def test_empty_log_has_root(self):
        log = MerkleLog([])
        assert isinstance(log.root(), bytes)
        assert len(log.root()) == 32

    def test_append_returns_indices(self):
        grown = Entries()
        assert grown.add(b"a") == 0
        assert grown.add(b"b") == 1
        assert len(grown.log) == 2

    def test_entry_retrieval(self):
        log = _filled_log(3)
        assert log.entry(1) == b"entry-1"

    def test_root_changes_on_append(self):
        grown = _filled(4)
        before = grown.log.root()
        grown.add(b"new")
        assert grown.log.root() != before

    def test_prefix_root_is_stable(self):
        grown = _filled(4)
        prefix_root = grown.log.root(4)
        grown.add(b"later")
        assert grown.log.root(4) == prefix_root

    def test_entry_past_the_hashed_leaves_is_out_of_range(self):
        grown = _filled(2)
        grown.entries.append(b"not yet hashed")
        with pytest.raises(IndexError):
            grown.log.entry(2)

    def test_root_out_of_range(self):
        log = _filled_log(2)
        with pytest.raises(ValueError):
            log.root(3)


class TestInclusionProofs:
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 13])
    def test_all_leaves_prove(self, size):
        log = _filled_log(size)
        root = log.root()
        for i in range(size):
            proof = log.inclusion_proof(i)
            assert proof.verify(f"entry-{i}".encode(), root)

    def test_wrong_leaf_fails(self):
        log = _filled_log(6)
        proof = log.inclusion_proof(2)
        assert not proof.verify(b"entry-3", log.root())

    def test_wrong_root_fails(self):
        log = _filled_log(6)
        proof = log.inclusion_proof(2)
        assert not proof.verify(b"entry-2", b"\x00" * 32)

    def test_proof_against_prefix(self):
        log = _filled_log(10)
        proof = log.inclusion_proof(3, tree_size=7)
        assert proof.verify(b"entry-3", log.root(7))
        assert not proof.verify(b"entry-3", log.root(10))

    def test_out_of_range_proof(self):
        log = _filled_log(4)
        with pytest.raises(ValueError):
            log.inclusion_proof(4)
        with pytest.raises(ValueError):
            log.inclusion_proof(2, tree_size=9)


class TestConsistency:
    def test_honest_growth_passes(self):
        grown = _filled(5)
        old_root = grown.log.root()
        grown.add(b"more")
        grown.log.check_consistency(5, old_root)  # no raise

    def test_rewrite_detected(self):
        old_root = _filled_log(5).root()
        rewritten = Entries(
            b"tampered" if i == 2 else f"entry-{i}".encode() for i in range(5)
        )
        with pytest.raises(MerkleConsistencyError):
            rewritten.log.check_consistency(5, old_root)

    def test_shrunk_log_detected(self):
        log = _filled_log(3)
        old_root = log.root()
        with pytest.raises(MerkleConsistencyError):
            log.check_consistency(5, old_root)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=40))
def test_property_every_inclusion_proof_verifies(entries):
    """Property: for any entry list, every leaf proves against the root."""
    log = Entries(entries).log
    root = log.root()
    for i, entry in enumerate(entries):
        assert log.inclusion_proof(i).verify(entry, root)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.binary(min_size=1, max_size=8), min_size=2, max_size=30),
    st.data(),
)
def test_property_consistency_across_any_growth(entries, data):
    """Property: any prefix root stays consistent as the log grows."""
    cut = data.draw(st.integers(min_value=1, max_value=len(entries) - 1))
    grown = Entries(entries[:cut])
    old_root = grown.log.root()
    for entry in entries[cut:]:
        grown.add(entry)
    grown.log.check_consistency(cut, old_root)
