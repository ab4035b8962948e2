"""Goal/Nongoal conformance: section 2's requirements, one test each.

These tests are executable documentation: each asserts the system
property the paper states, with the mechanism that provides it named in
the test body.
"""

import numpy as np
import pytest

from repro.core import IrsDeployment
from repro.core.validation import ValidationDecision, ValidationPolicy, Validator
from repro.media.jpeg import jpeg_roundtrip
from repro.media.transforms import crop, tint


@pytest.fixture()
def irs():
    return IrsDeployment.create(seed=190)


@pytest.fixture()
def claimed(irs):
    photo = irs.new_photo()
    receipt, labeled = irs.owner_toolkit.claim_and_label(photo, irs.ledger)
    return photo, receipt, labeled


class TestGoal1OwnerControl:
    def test_i_revocable_after_sharing_and_resharing(self, irs, claimed):
        """(i) revoke even after it has been shared and reshared."""
        _, receipt, labeled = claimed
        reshared = jpeg_roundtrip(labeled, 70)  # a reshare transcoded it
        irs.owner_toolkit.revoke(receipt, irs.ledger)
        assert not irs.validator.validate(labeled).allowed
        assert not irs.validator.validate(reshared).allowed

    def test_ii_no_per_copy_takedown_needed(self, irs, claimed):
        """(ii) one ledger flag covers every copy — no copy enumeration."""
        _, receipt, labeled = claimed
        copies = [jpeg_roundtrip(labeled, q) for q in (80, 60)]
        irs.owner_toolkit.revoke(receipt, irs.ledger)
        # A single revocation call; every copy now denies.
        for copy in copies:
            assert (
                irs.validator.validate(copy).decision
                is ValidationDecision.DENY_REVOKED
            )

    def test_iii_revocation_without_divulging_content(self, irs, claimed):
        """(iii) the ledger never holds pixels — only hashes, keys,
        signatures.  Inspect the actual stored record."""
        _, receipt, _ = claimed
        record = irs.ledger.record(receipt.identifier)
        # The record's fields are hash/key/timestamp material only.
        assert isinstance(record.content_hash, str)
        assert len(record.content_hash) == 64  # a digest, not an image
        assert not hasattr(record, "pixels")
        assert not hasattr(record, "photo")

    def test_iv_owner_anonymity(self, irs, claimed):
        """(iv) ownership is key possession; no identity anywhere."""
        _, receipt, _ = claimed
        record = irs.ledger.record(receipt.identifier)
        # Nothing in the record or the revocation protocol names the
        # owner: the only owner-linked material is the public key.
        assert record.public_key.fingerprint == receipt.keypair.fingerprint
        events = irs.ledger.store.events.events
        assert events
        for event in events:
            assert not hasattr(event, "owner")
            assert "owner" not in event.payload
            assert "owner" not in event.payload.get("record", {})


class TestGoal2ViewerPrivacy:
    def test_proxied_checks_hide_viewers(self, irs, claimed):
        from repro.proxy.anonymity import ObservationLog
        from repro.proxy.proxy import IrsProxy

        _, receipt, _ = claimed
        observations = ObservationLog()
        proxy = IrsProxy("p", irs.registry, observation_log=observations)
        proxy.status(receipt.identifier)
        assert observations.requesters() == {"p"}  # never a viewer name


class TestGoal3EmpowerGoodBehaviour:
    def test_viewer_informed_of_revocation(self, irs, claimed):
        """The extension tells the viewer *why* an image is blocked."""
        from repro.browser.extension import IrsBrowserExtension

        _, receipt, labeled = claimed
        irs.owner_toolkit.revoke(receipt, irs.ledger)
        extension = IrsBrowserExtension(status_source=irs.registry.status)
        decision = extension.on_image(labeled)
        assert not decision.display
        assert "revoked" in decision.reason

    def test_system_informed_at_upload(self, irs, claimed):
        _, receipt, labeled = claimed
        irs.owner_toolkit.revoke(receipt, irs.ledger)
        validator = Validator.for_registry(
            irs.registry,
            policy=ValidationPolicy.upload(),
            watermark_codec=irs.watermark_codec,
        )
        result = validator.validate(labeled)
        assert result.decision is ValidationDecision.DENY_REVOKED
        assert result.proof is not None  # verifiable, not just asserted


class TestGoal4LowOverhead:
    def test_viewing_path_does_not_extract_watermarks(self, irs, claimed):
        """The per-image hot path is a metadata read + one lookup; the
        expensive watermark extraction is reserved for uploads."""
        *_, labeled = claimed
        viewing = Validator.for_registry(
            irs.registry,
            policy=ValidationPolicy.viewing(),
            watermark_codec=irs.watermark_codec,
        )
        import time

        start = time.perf_counter()
        for _ in range(50):
            viewing.validate(labeled)
        per_photo = (time.perf_counter() - start) / 50
        assert per_photo < 0.005  # milliseconds, not tens of them


class TestGoal5RobustToBenignAlteration:
    def test_transcode_and_tint_keep_label(self, irs, claimed):
        _, receipt, labeled = claimed
        mangled = jpeg_roundtrip(tint(labeled, (1.1, 1.0, 0.9)), 60)
        from repro.core.labeling import read_label

        label = read_label(mangled, irs.watermark_codec, registry=irs.registry)
        assert label.identifier == receipt.identifier

    def test_metadata_strip_keeps_watermark_channel(self, irs, claimed):
        _, receipt, labeled = claimed
        stripped = labeled.copy()
        stripped.metadata = stripped.metadata.stripped(preserve_irs=False)
        from repro.core.labeling import read_label

        label = read_label(stripped, irs.watermark_codec, registry=irs.registry)
        assert label.identifier == receipt.identifier


class TestNongoals:
    def test_nongoal1_willful_violators_not_stopped(self, irs, claimed):
        """A determined attacker with their own software sees the
        pixels regardless — IRS never encrypts content."""
        _, receipt, labeled = claimed
        irs.owner_toolkit.revoke(receipt, irs.ledger)
        # The pixels remain plainly readable by non-IRS software.
        assert labeled.pixels.shape == (128, 128, 3)
        assert labeled.pixels.mean() > 0

    def test_nongoal2_third_party_photos_out_of_scope(self, irs):
        """Someone who owns a photo of *you* controls its claim; IRS
        offers no mechanism to revoke others' claims except the
        derivation-based appeal (which fails for genuinely distinct
        photos)."""
        from repro.ledger.appeals import AppealsProcess

        photographer = irs.owner_toolkit
        their_photo = irs.new_photo()
        their_receipt = photographer.claim(their_photo, irs.ledger)
        # The subject's own (different) photo gives no standing.
        subject_photo = irs.new_photo()
        subject_receipt = photographer.claim(subject_photo, irs.ledger)
        process = AppealsProcess(irs.ledger, [irs.timestamp_authority])
        appeal = photographer.prepare_appeal(
            subject_receipt,
            subject_photo,
            process,
            their_receipt.identifier,
            their_photo,
        )
        assert not process.adjudicate(appeal).upheld

    def test_nongoal3_heavy_modification_loses_label(self, irs, claimed):
        """Aggressive cropping can defeat automatic labeling — accepted,
        because appeals + hash DB remain."""
        _, _, labeled = claimed
        tiny = crop(labeled, 0, 0, 24, 24, preserve_metadata=False)
        from repro.core.labeling import LabelState, read_label

        label = read_label(tiny, irs.watermark_codec, registry=irs.registry)
        assert label.state is LabelState.UNLABELED

    def test_nongoal4_revocation_not_instantaneous(self, irs, claimed):
        """With a caching proxy, revocation becomes visible at TTL
        expiry, not immediately — bounded staleness by design."""
        from repro.netsim.simulator import ManualClock
        from repro.proxy.cache import TtlLruCache
        from repro.proxy.proxy import IrsProxy

        _, receipt, _ = claimed
        clock = ManualClock()
        proxy = IrsProxy(
            "p",
            irs.registry,
            cache=TtlLruCache(10, ttl=100.0, clock=clock.now),
            clock=clock.now,
        )
        assert not proxy.status(receipt.identifier).revoked
        irs.owner_toolkit.revoke(receipt, irs.ledger)
        assert not proxy.status(receipt.identifier).revoked  # stale window
        clock.advance(101.0)
        assert proxy.status(receipt.identifier).revoked  # bounded
