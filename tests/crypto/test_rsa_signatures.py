"""Tests for the RSA primitive and the signature layer."""

import hashlib

import numpy as np
import pytest

from repro.crypto import rsa
from repro.crypto.signatures import PublicKey, Signature


class TestPrimality:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 97, 7919):
            assert rsa.is_probable_prime(p)

    def test_small_composites(self):
        for n in (0, 1, 4, 9, 15, 561, 7917):
            assert not rsa.is_probable_prime(n)

    def test_carmichael_numbers_rejected(self):
        # Carmichael numbers fool Fermat but not Miller-Rabin.
        for n in (561, 1105, 1729, 2465, 2821, 6601):
            assert not rsa.is_probable_prime(n)

    def test_large_known_prime(self):
        # 2^127 - 1 is a Mersenne prime.
        assert rsa.is_probable_prime(2**127 - 1)


class TestKeyGeneration:
    def test_modulus_size(self):
        key = rsa.generate_keypair(bits=512, rng=np.random.default_rng(1))
        assert key.n.bit_length() == 512

    def test_reproducible_with_seed(self):
        k1 = rsa.generate_keypair(bits=384, rng=np.random.default_rng(9))
        k2 = rsa.generate_keypair(bits=384, rng=np.random.default_rng(9))
        assert k1.n == k2.n

    def test_different_seeds_different_keys(self):
        k1 = rsa.generate_keypair(bits=384, rng=np.random.default_rng(1))
        k2 = rsa.generate_keypair(bits=384, rng=np.random.default_rng(2))
        assert k1.n != k2.n

    def test_too_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            rsa.generate_keypair(bits=256)

    @pytest.mark.parametrize(
        "seed, fingerprint",
        [(0, "2489206e06a8c34f"), (1, "22bb9437c02b16c2"), (2, "5e4c3e5bfb27e999")],
    )
    def test_seeded_keys_are_the_keys_of_pr_22(self, seed, fingerprint):
        """Recorded before Miller-Rabin moved to ``modexp``: same draws, same primes."""
        key = rsa.generate_keypair(512, np.random.default_rng(seed))
        assert key.public.fingerprint == fingerprint

    def test_private_exponent_inverts_public(self):
        key = rsa.generate_keypair(bits=512, rng=np.random.default_rng(3))
        phi = (key.p - 1) * (key.q - 1)
        assert (key.d * key.e) % phi == 1


class TestRawSignVerify:
    def test_roundtrip(self, session_keypair):
        key = session_keypair._private
        digest = 12345678901234567890
        signature = key.sign_int(digest)
        assert key.public.verify_int(digest, signature)

    def test_wrong_digest_fails(self, session_keypair):
        key = session_keypair._private
        signature = key.sign_int(111)
        assert not key.public.verify_int(222, signature)

    def test_out_of_range_signature_fails(self, session_keypair):
        key = session_keypair._private
        assert not key.public.verify_int(1, 0)
        assert not key.public.verify_int(1, key.n + 5)


class TestKeyPairApi:
    def test_sign_verify_bytes(self, session_keypair):
        sig = session_keypair.sign(b"message")
        assert session_keypair.public.verify(b"message", sig)
        assert not session_keypair.public.verify(b"other", sig)

    def test_sign_verify_struct(self, session_keypair):
        payload = {"action": "revoke", "serial": 7}
        sig = session_keypair.sign_struct(payload)
        assert session_keypair.public.verify_struct(payload, sig)
        assert not session_keypair.public.verify_struct({"action": "revoke"}, sig)

    def test_cross_key_verification_fails(self, session_keypair, second_keypair):
        sig = session_keypair.sign(b"msg")
        assert not second_keypair.public.verify(b"msg", sig)

    def test_fingerprint_stable_and_distinct(self, session_keypair, second_keypair):
        assert session_keypair.fingerprint == session_keypair.public.fingerprint
        assert session_keypair.fingerprint != second_keypair.fingerprint

    def test_fingerprint_is_hashed_once_per_key(self, session_keypair):
        key = PublicKey.from_dict(session_keypair.public.to_dict())
        material = key._key.n.to_bytes((key.bits + 7) // 8, "big")
        material += key._key.e.to_bytes(8, "big")
        assert key.fingerprint == hashlib.sha256(material).hexdigest()[:16]
        assert key.fingerprint is key.fingerprint  # cached on the key
        assert key == session_keypair.public  # the cache is not a field

    def test_signature_dict_roundtrip(self, session_keypair):
        sig = session_keypair.sign(b"msg")
        restored = Signature.from_dict(sig.to_dict())
        assert session_keypair.public.verify(b"msg", restored)

    def test_public_key_dict_roundtrip(self, session_keypair):
        restored = PublicKey.from_dict(session_keypair.public.to_dict())
        sig = session_keypair.sign(b"msg")
        assert restored.verify(b"msg", sig)
        assert restored.fingerprint == session_keypair.fingerprint

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", "12345"), ("n", 2.0**400), ("n", True), ("n", None),
            ("n", 0), ("n", -(2**511) - 1), ("n", 2**511), ("n", 2**382 + 1),
            ("e", "65537"), ("e", 65537.0), ("e", 1), ("e", 0), ("e", -3), ("e", 65536),
        ],
    )
    def test_hostile_public_key_dict_rejected(self, session_keypair, field, value):
        data = session_keypair.public.to_dict()
        data[field] = value
        with pytest.raises(ValueError):
            PublicKey.from_dict(data)

    @pytest.mark.parametrize(
        "n, e, answer",
        [
            (2**511, 65537, False),  # even modulus
            (-(2**511) - 1, 65537, False),  # negative: no signature is in range
            (0, 65537, False),
            (2**511 + 1, 65536, False),  # even exponent
            (2**511 + 1, -1, False),  # modular inverse
            (2**511 + 2, -1, ValueError),  # ... of a non-invertible base
            (2**100 + 1, 3, ValueError),  # no room for the padded digest
            ("12345", 3, TypeError),
        ],
    )
    def test_hostile_key_built_directly_answers_as_it_did(self, n, e, answer):
        """What the parent commit's ``pow`` answered, whichever binding runs."""
        key = rsa.RsaPublicKey(n=n, e=e)
        if answer is False:
            assert key.verify_int(7, 2) is False
        else:
            with pytest.raises(answer):
                key.verify_int(7, 2)

    def test_signature_tamper_detected(self, session_keypair):
        sig = session_keypair.sign(b"msg")
        tampered = Signature(value=sig.value ^ 1, signer_fingerprint=sig.signer_fingerprint)
        assert not session_keypair.public.verify(b"msg", tampered)
