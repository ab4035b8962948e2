"""Tests for photo identifiers."""

import pytest
from hypothesis import given, strategies as st

from repro.core.identifiers import (
    COMPACT_LENGTH,
    IdentifierError,
    PhotoIdentifier,
    ledger_tag,
)


class TestStringEncoding:
    def test_roundtrip(self):
        identifier = PhotoIdentifier(ledger_id="ledger-0", serial=42)
        assert PhotoIdentifier.from_string(identifier.to_string()) == identifier

    def test_format(self):
        assert (
            PhotoIdentifier(ledger_id="my-ledger", serial=7).to_string()
            == "irs1:my-ledger:7"
        )

    @pytest.mark.parametrize(
        "bad",
        ["", "irs1:x", "irs2:x:1", "irs1:x:notanumber", "x:y:z:w", "irs1::5"],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(IdentifierError):
            PhotoIdentifier.from_string(bad)

    def test_str_dunder(self):
        identifier = PhotoIdentifier(ledger_id="l", serial=1)
        assert str(identifier) == identifier.to_string()


class TestValidation:
    def test_empty_ledger_id_rejected(self):
        with pytest.raises(IdentifierError):
            PhotoIdentifier(ledger_id="", serial=1)

    def test_colon_in_ledger_id_rejected(self):
        with pytest.raises(IdentifierError):
            PhotoIdentifier(ledger_id="a:b", serial=1)

    def test_pipe_in_ledger_id_rejected(self):
        # '|' is the escape character in the status-proof wire format.
        with pytest.raises(IdentifierError):
            PhotoIdentifier(ledger_id="a|b", serial=1)

    def test_serial_range(self):
        PhotoIdentifier(ledger_id="l", serial=0)
        PhotoIdentifier(ledger_id="l", serial=2**64 - 1)
        with pytest.raises(IdentifierError):
            PhotoIdentifier(ledger_id="l", serial=-1)
        with pytest.raises(IdentifierError):
            PhotoIdentifier(ledger_id="l", serial=2**64)


class TestCompactEncoding:
    def test_length(self):
        compact = PhotoIdentifier(ledger_id="ledger-0", serial=5).to_compact()
        assert len(compact) == COMPACT_LENGTH

    def test_tag_and_serial_split(self):
        identifier = PhotoIdentifier(ledger_id="ledger-0", serial=123456)
        tag, serial = PhotoIdentifier.tag_and_serial_from_compact(
            identifier.to_compact()
        )
        assert tag == ledger_tag("ledger-0")
        assert serial == 123456

    def test_matches_compact(self):
        identifier = PhotoIdentifier(ledger_id="ledger-0", serial=5)
        assert identifier.matches_compact(identifier.to_compact())
        other = PhotoIdentifier(ledger_id="ledger-0", serial=6)
        assert not identifier.matches_compact(other.to_compact())
        assert not identifier.matches_compact(b"garbage")

    def test_wrong_length_rejected(self):
        with pytest.raises(IdentifierError):
            PhotoIdentifier.tag_and_serial_from_compact(b"short")

    def test_distinct_ledgers_distinct_tags(self):
        assert ledger_tag("ledger-a") != ledger_tag("ledger-b")

    def test_empty_ledger_tag_rejected(self):
        with pytest.raises(IdentifierError):
            ledger_tag("")

    def test_tag_is_the_sha256_prefix_however_often_it_is_asked_for(self):
        import hashlib

        for _ in range(3):  # the first call computes it, the rest recall it
            for ledger_id in ("irs1", "ledger-0", "lédger"):
                assert ledger_tag(ledger_id) == hashlib.sha256(
                    ledger_id.encode("utf-8")
                ).digest()[:4]
        with pytest.raises(IdentifierError):  # a refusal is not remembered
            ledger_tag("")


@given(
    st.text(
        alphabet=st.characters(blacklist_characters=":|", min_codepoint=33, max_codepoint=126),
        min_size=1,
        max_size=20,
    ),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_property_string_roundtrip(ledger_id, serial):
    """Property: string encoding round-trips for any valid identifier."""
    identifier = PhotoIdentifier(ledger_id=ledger_id, serial=serial)
    assert PhotoIdentifier.from_string(identifier.to_string()) == identifier


@given(
    st.text(
        alphabet=st.characters(blacklist_characters=":|", min_codepoint=33, max_codepoint=126),
        min_size=1,
        max_size=20,
    ),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_property_compact_self_match(ledger_id, serial):
    """Property: every identifier matches its own compact encoding."""
    identifier = PhotoIdentifier(ledger_id=ledger_id, serial=serial)
    assert identifier.matches_compact(identifier.to_compact())
