"""Merkle transparency log for tamper-evident ledgers.

Section 5 of the paper worries about ledgers "answering queries
incorrectly" and suggests cryptographic proofs plus reputational
auditing.  A standard remedy (as in Certificate Transparency) is an
append-only Merkle log: the ledger publishes a signed root after every
batch of claims/revocations, and auditors verify

* *inclusion proofs* -- a given record is in the log, and
* *consistency proofs* -- a newer root extends an older one without
  rewriting history.

This module implements an RFC 6962-style Merkle tree over arbitrary
byte leaves, including both proof types.  The ledger's tree
(:attr:`repro.ledger.storage.LedgerStore.merkle`) is a view of its
event chain, not a second log: leaf *i* is the chain hash of the
*i*-th event sealed since the chain's anchor (read from the chain, not
copied).  It is used by :mod:`repro.ledger.probes` for honesty auditing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.crypto.hashing import PackedDigests, sha256_bytes

__all__ = ["MerkleLog", "MerkleProof", "MerkleConsistencyError"]

# Domain-separation prefixes, per RFC 6962.
_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


class MerkleConsistencyError(Exception):
    """Raised when a consistency check between two roots fails."""


def _leaf_hash(data: bytes) -> bytes:
    return sha256_bytes(_LEAF_PREFIX + data)


def _node_hash(left: bytes, right: bytes) -> bytes:
    return sha256_bytes(_NODE_PREFIX + left + right)


def _root_of(hashes: Sequence[bytes]) -> bytes:
    """Root of an RFC 6962 tree over pre-hashed leaves."""
    n = len(hashes)
    if n == 0:
        return sha256_bytes(b"")
    if n == 1:
        return hashes[0]
    k = _largest_power_of_two_below(n)
    return _node_hash(_root_of(hashes[:k]), _root_of(hashes[k:]))


def _largest_power_of_two_below(n: int) -> int:
    """Largest power of two strictly less than ``n`` (n >= 2)."""
    k = 1
    while k * 2 < n:
        k *= 2
    return k


@dataclass(frozen=True)
class MerkleProof:
    """An inclusion proof: ``leaf_index`` is in a tree of ``tree_size``."""

    leaf_index: int
    tree_size: int
    path: tuple  # tuple of (sibling_hash, is_right_sibling)

    def verify(self, leaf_data: bytes, root: bytes) -> bool:
        """Return True iff ``leaf_data`` at our index hashes up to ``root``."""
        if not 0 <= self.leaf_index < self.tree_size:
            return False
        node = _leaf_hash(leaf_data)
        for sibling, sibling_is_right in self.path:
            if sibling_is_right:
                node = _node_hash(node, sibling)
            else:
                node = _node_hash(sibling, node)
        return node == root


class MerkleLog:
    """Append-only Merkle log over a sequence of byte-string entries.

    The log is a view of ``leaves``, a sequence its owner appends to
    (for the ledger, the event chain's hashes), and keeps no copy of
    them: :meth:`append` hashes the sequence's next entry once it is
    there.  Leaf hashes sit in one packed buffer, and subtree hashes
    are recomputed on demand.
    """

    def __init__(self, leaves: Sequence[bytes]):
        self._leaves = leaves
        self._leaf_hashes = PackedDigests(32)

    def __len__(self) -> int:
        return len(self._leaf_hashes)

    @property
    def size(self) -> int:
        return len(self._leaf_hashes)

    def append(self) -> int:
        """Hash the next entry of ``leaves`` in; returns its leaf index."""
        index = len(self._leaf_hashes)
        self._leaf_hashes.append(_leaf_hash(self._leaves[index]))
        return index

    def entry(self, index: int) -> bytes:
        if not 0 <= index < self.size:
            raise IndexError(index)
        return self._leaves[index]

    def root(self, tree_size: int | None = None) -> bytes:
        """Root over the first ``tree_size`` leaves (default: all)."""
        if tree_size is None:
            tree_size = self.size
        if not 0 <= tree_size <= self.size:
            raise ValueError("tree_size out of range")
        return _root_of(self._leaf_hashes.prefix(tree_size))

    def inclusion_proof(self, index: int, tree_size: int | None = None) -> MerkleProof:
        """Proof that leaf ``index`` is included in the first ``tree_size``."""
        if tree_size is None:
            tree_size = self.size
        if not 0 <= index < tree_size <= self.size:
            raise ValueError("index/tree_size out of range")
        path: list = []
        self._build_path(self._leaf_hashes.prefix(tree_size), index, path)
        return MerkleProof(leaf_index=index, tree_size=tree_size, path=tuple(path))

    def _build_path(self, hashes: Sequence[bytes], index: int, path: list) -> bytes:
        """Recursively compute root while collecting the sibling path."""
        n = len(hashes)
        if n == 1:
            return hashes[0]
        k = _largest_power_of_two_below(n)
        if index < k:
            left = self._build_path(hashes[:k], index, path)
            right = _root_of(hashes[k:])
            path.append((right, True))
        else:
            left = _root_of(hashes[:k])
            right = self._build_path(hashes[k:], index - k, path)
            path.append((left, False))
        return _node_hash(left, right)

    def check_consistency(self, old_size: int, old_root: bytes) -> None:
        """Verify the current log extends the log that had ``old_root``.

        Raises :class:`MerkleConsistencyError` when the recorded prefix
        no longer hashes to ``old_root`` (i.e. history was rewritten).

        This recomputes the prefix root directly from retained leaf hashes;
        a production system would use RFC 6962 consistency proofs so
        auditors need not hold all leaves, but the trust property
        exercised by the tests is the same.
        """
        if not 0 <= old_size <= self.size:
            raise MerkleConsistencyError(
                f"old size {old_size} exceeds current size {self.size}"
            )
        if self.root(old_size) != old_root:
            raise MerkleConsistencyError(
                f"log prefix of size {old_size} does not match the previously "
                "observed root: history was rewritten"
            )
