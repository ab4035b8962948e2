"""Differential tests: every vectorized fast path equals its scalar oracle.

The perf suite (``repro.perf.suite``) reports speedups only after
locking fast/oracle results together by checksum; these tests hold the
same pairs equal under hypothesis-generated workloads, including the
edge shapes a benchmark never exercises — empty batches, duplicate
keys, all-hit and all-miss probes.  The ``rsa_sign_verify`` pair, and
verifies under more keys than ``modexp`` keeps, are one code path on two
bindings of ``rsa.modexp``; their oracle is the builtin.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import rsa
from repro.filters.bloom import BloomFilter
from repro.crypto.signatures import KeyPair, Signature
from repro.crypto.modexp import _KEPT
from repro.media.perceptual import RobustHash, hamming_many, pack_signatures
from repro.perf.workloads import signature_blobs

keys_strategy = st.lists(
    st.binary(min_size=0, max_size=24), min_size=1, max_size=64, unique=True
)
probes_strategy = st.lists(st.binary(min_size=0, max_size=24), max_size=64)


def _build_bloom(members):
    bloom = BloomFilter.for_capacity(max(len(members), 1), 0.01)
    bloom.add_many(members)
    return bloom


FILTER_BUILDERS = {"bloom": _build_bloom}


class TestBatchMembership:
    @pytest.mark.parametrize("flavor", sorted(FILTER_BUILDERS))
    @settings(max_examples=40, deadline=None)
    @given(members=keys_strategy, probes=probes_strategy)
    def test_query_many_matches_contains(self, flavor, members, probes):
        flt = FILTER_BUILDERS[flavor](members)
        batch = flt.query_many(probes)
        assert isinstance(batch, np.ndarray)
        assert batch.dtype == np.bool_
        assert list(batch) == [key in flt for key in probes]

    @pytest.mark.parametrize("flavor", sorted(FILTER_BUILDERS))
    def test_empty_batch(self, flavor):
        flt = FILTER_BUILDERS[flavor]([b"only-member"])
        batch = flt.query_many([])
        assert len(batch) == 0

    @pytest.mark.parametrize("flavor", sorted(FILTER_BUILDERS))
    def test_duplicate_keys_answer_identically(self, flavor):
        members = [b"alpha", b"beta", b"gamma"]
        flt = FILTER_BUILDERS[flavor](members)
        probes = [b"alpha", b"missing", b"alpha", b"missing", b"alpha"]
        batch = list(flt.query_many(probes))
        assert batch[0] == batch[2] == batch[4]
        assert batch[1] == batch[3]
        assert batch == [key in flt for key in probes]

    @pytest.mark.parametrize("flavor", sorted(FILTER_BUILDERS))
    def test_all_members_hit(self, flavor):
        members = [f"member-{i}".encode() for i in range(300)]
        flt = FILTER_BUILDERS[flavor](members)
        assert flt.query_many(members).all()

    @pytest.mark.parametrize("flavor", sorted(FILTER_BUILDERS))
    def test_all_miss_matches_scalar(self, flavor):
        members = [f"member-{i}".encode() for i in range(300)]
        flt = FILTER_BUILDERS[flavor](members)
        misses = [f"absent-{i}".encode() for i in range(300)]
        assert list(flt.query_many(misses)) == [key in flt for key in misses]


class TestHammingDistance:
    @settings(max_examples=40, deadline=None)
    @given(
        blobs=st.lists(
            st.binary(min_size=64, max_size=64), min_size=1, max_size=32
        ),
        query=st.binary(min_size=64, max_size=64),
    )
    def test_hamming_many_matches_distance(self, blobs, query):
        query_hash = RobustHash(bits=query)
        hashes = [RobustHash(bits=blob) for blob in blobs]
        fast = hamming_many(query_hash, pack_signatures(hashes))
        slow = [query_hash.distance(other) for other in hashes]
        assert fast.shape == (len(hashes),)
        # Distances are exact multiples of 1/512: equality, not approx.
        assert list(fast) == slow

    def test_identical_and_inverted_signatures(self):
        ones = RobustHash(bits=b"\xff" * 64)
        zeros = RobustHash(bits=b"\x00" * 64)
        packed = pack_signatures([ones, zeros])
        assert list(hamming_many(ones, packed)) == [0.0, 1.0]
        assert list(hamming_many(zeros, packed)) == [1.0, 0.0]


class TestRsaOnModexp:
    @settings(max_examples=40, deadline=None)
    @given(messages=st.lists(st.binary(max_size=48), min_size=1, max_size=8))
    def test_signatures_equal_on_both_bindings(self, session_keypair, messages):
        shipped = [session_keypair.sign(message) for message in messages]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rsa, "modexp", pow)
            assert [session_keypair.sign(message) for message in messages] == shipped
            on_pow = [
                session_keypair.public.verify(message, signature)
                for message, signature in zip(messages, shipped)
            ]
        assert all(on_pow)
        assert all(map(session_keypair.public.verify, messages, shipped))
        forged = Signature(shipped[0].value ^ 1, shipped[0].signer_fingerprint)
        assert not session_keypair.public.verify(messages[0], forged)

    @pytest.mark.parametrize("seed", [0, 2022])
    def test_verdicts_equal_under_more_keys_than_modexp_keeps(self, seed):
        """Every verify evicts a kept modulus; the verdicts do not move."""
        rng = np.random.default_rng(seed)
        keypairs = [KeyPair.generate(512, rng) for _ in range(2 * _KEPT)]
        messages = signature_blobs(seed + 1, 4 * len(keypairs))
        signed = []
        for index, message in enumerate(messages):
            keypair = keypairs[index % len(keypairs)]
            over = messages[index - 1] if index % 4 == 3 else message  # a verdict of False
            signed.append((keypair.public, message, keypair.sign(over)))

        def verdicts():
            return [public.verify(message, signature) for public, message, signature in signed]

        shipped = verdicts()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rsa, "modexp", pow)
            assert verdicts() == shipped
        assert shipped == [index % 4 != 3 for index in range(len(shipped))]
