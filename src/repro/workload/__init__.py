"""Synthetic workloads for the IRS experiments.

* :mod:`repro.workload.population` -- photo populations at scale:
  bulk-claimed ledger contents with configurable revoked fractions
  (section 4.4's "high fraction of total photos will be revoked").
* :mod:`repro.workload.zipf` -- Zipf popularity, the standard model for
  photo view frequency ("a very high fraction of *viewed* photos are
  *not* revoked").
* :mod:`repro.workload.traces` -- browsing traces: who views which
  photo when.
* :mod:`repro.workload.pages` -- photo-heavy page generation
  (pinterest-like, per section 4.3's case study).
"""

from repro.workload.population import PhotoPopulation, populate_ledger
from repro.workload.zipf import ZipfSampler
from repro.workload.traces import BrowsingTraceGenerator, ViewEvent
from repro.workload.pages import pinterest_like_page
from repro.workload.diurnal import DiurnalProfile

__all__ = [
    "PhotoPopulation",
    "populate_ledger",
    "ZipfSampler",
    "BrowsingTraceGenerator",
    "ViewEvent",
    "pinterest_like_page",
    "DiurnalProfile",
]
