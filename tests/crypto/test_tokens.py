"""Tests for payment tokens."""

import pytest

from repro.crypto.tokens import TokenError, TokenIssuer


class TestIssuer:
    def test_sell_records_purchase(self):
        issuer = TokenIssuer()
        token = issuer.sell("alice")
        assert issuer.purchases[token.serial] == "alice"

    def test_redeem_valid_token(self):
        issuer = TokenIssuer()
        token = issuer.sell("alice")
        issuer.redeem(token)
        assert issuer.is_redeemed(token.serial)

    def test_double_spend_rejected(self):
        issuer = TokenIssuer()
        token = issuer.sell("alice")
        issuer.redeem(token)
        with pytest.raises(TokenError):
            issuer.redeem(token)

    def test_foreign_token_rejected(self):
        issuer1, issuer2 = TokenIssuer(), TokenIssuer()
        token = issuer1.sell("alice")
        with pytest.raises(TokenError):
            issuer2.redeem(token)

    def test_forged_serial_rejected(self):
        from dataclasses import replace

        issuer = TokenIssuer()
        token = issuer.sell("alice")
        forged = replace(token, serial=token.serial + 1)
        with pytest.raises(TokenError):
            issuer.redeem(forged)

    def test_serials_unique(self):
        issuer = TokenIssuer()
        serials = {issuer.sell(f"u{i}").serial for i in range(10)}
        assert len(serials) == 10
