"""``modexp(base, exp, mod)``: the builtin three-argument ``pow``, run on libcrypto.

CPython's ``pow`` spends ~110 us on one 256-bit CRT half; the OpenSSL
that already computes every SHA-256 in this process takes ~20 us,
conversion included.  ``CDLL(_hashlib.__file__)`` resolves the ``BN_*``
symbols through the extension's own dependency, so nothing is searched
for or installed.  If any step of binding fails the name is the builtin
``pow``: what runs is what the platform has, never a setting.  Ints in,
int out; the only native state is one thread's scratch ``BIGNUM``s.
"""

from __future__ import annotations

import threading

__all__ = ["modexp"]


def _bind():
    import _hashlib
    from ctypes import CDLL, c_char_p, c_int, c_void_p, create_string_buffer

    lib = CDLL(_hashlib.__file__)
    for name, restype, *argtypes in (
        ("BN_new", c_void_p),
        ("BN_free", None, c_void_p),
        ("BN_CTX_new", c_void_p),
        ("BN_CTX_free", None, c_void_p),
        ("BN_bin2bn", c_void_p, c_char_p, c_int, c_void_p),
        ("BN_bn2binpad", c_int, c_void_p, c_char_p, c_int),
        ("BN_mod_exp_mont_consttime", c_int, *[c_void_p] * 6),
    ):
        function = getattr(lib, name)
        function.restype, function.argtypes = restype, argtypes
    bin2bn, bn2binpad, mod_exp = lib.BN_bin2bn, lib.BN_bn2binpad, lib.BN_mod_exp_mont_consttime

    class Scratch:
        """One thread's ``base, exp, mod, result`` and ``BN_CTX``, freed with the thread."""

        def __init__(self):
            self.ctx, self.bns = lib.BN_CTX_new(), [lib.BN_new() for _ in range(4)]
            if not (self.ctx and all(self.bns)):
                raise MemoryError("libcrypto could not allocate BIGNUM scratch")

        def __del__(self):
            for bn in self.bns:
                lib.BN_free(bn)
            lib.BN_CTX_free(self.ctx)

    local = threading.local()

    def modexp(base: int, exp: int, mod: int) -> int:
        """``pow(base, exp, mod)``; what Montgomery does not take goes to ``pow`` itself."""
        if (
            not (type(base) is type(exp) is type(mod) is int)
            or mod < 3 or not mod & 1 or exp < 0 or not 0 <= base < mod
        ):
            return pow(base, exp, mod)
        try:
            scratch = local.scratch
        except AttributeError:
            scratch = local.scratch = Scratch()
        b, e, m, r = scratch.bns
        size, exp_size = (mod.bit_length() + 7) >> 3, (exp.bit_length() + 7) >> 3
        out = create_string_buffer(size)
        if (
            bin2bn(base.to_bytes(size, "big"), size, b)
            and bin2bn(exp.to_bytes(exp_size, "big"), exp_size, e)
            and bin2bn(mod.to_bytes(size, "big"), size, m)
            and mod_exp(r, b, e, m, scratch.ctx, None)
            and bn2binpad(r, out, size) == size
        ):
            return int.from_bytes(out.raw, "big")
        return pow(base, exp, mod)

    vector = (3**150, 2**255 - 20, 2**255 - 19)
    if modexp(*vector) != pow(*vector):
        raise ArithmeticError("libcrypto's modexp disagrees with pow")
    return modexp


try:
    modexp = _bind()
except (ImportError, OSError, AttributeError, ArithmeticError, MemoryError):
    modexp = pow
