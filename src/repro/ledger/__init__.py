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

:mod:`repro.ledger.appeals` compares photos and so imports the image
stack; import it by name — a serving node never loads it from here.
"""

from repro.ledger.records import ClaimRecord, RevocationState
from repro.ledger.storage import LedgerStore
from repro.ledger.events import EventLog, LedgerEvent, EventLogError
from repro.ledger.durable import DurableStore
from repro.ledger.recovery import RecoveryReport, recover_store
from repro.ledger.ledger import Ledger, LedgerConfig
from repro.ledger.registry import LedgerRegistry
from repro.ledger.proofs import StatusProof
from repro.ledger.export import FilterExporter, FilterSnapshot, coordinated_exporters
from repro.ledger.economics import ServingCostModel, BootstrapScale
from repro.ledger.probes import HonestyProber, ProbeReport

__all__ = [
    "ClaimRecord",
    "RevocationState",
    "LedgerStore",
    "EventLog",
    "LedgerEvent",
    "EventLogError",
    "DurableStore",
    "RecoveryReport",
    "recover_store",
    "Ledger",
    "LedgerConfig",
    "LedgerRegistry",
    "StatusProof",
    "FilterExporter",
    "FilterSnapshot",
    "coordinated_exporters",
    "ServingCostModel",
    "BootstrapScale",
    "HonestyProber",
    "ProbeReport",
]
