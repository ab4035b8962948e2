"""Ledgers: "timestamped databases of photos" (section 3.1).

A ledger supports the four IRS operations on its side of the wire:

* **claim** -- record (encrypted hash, public key, authenticated
  timestamp, revoked flag), return a unique identifier;
* **revoke/unrevoke** -- flip the flag after a challenge-response
  ownership proof;
* **status** -- signed (non-)revocation statements used by validators
  and aggregators;
* plus the supporting machinery the paper describes: Bloom filter
  export with hourly deltas (section 4.4), the appeals process for
  fraudulently re-claimed copies (sections 3.2 and 5), a Merkle
  transparency log, and owner-side honesty probes (section 5).

The package root imports nothing: a module that needs one of these
imports it by name, so a serving node loads only what it runs (never,
for one, :mod:`repro.ledger.appeals`, which compares photos and so
imports the image stack).
"""
