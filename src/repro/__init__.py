"""repro: a reproduction of the Internet Revocation System (IRS).

Paper: "Global Content Revocation on the Internet: A Case Study in
Technology Ecosystem Transformation", Galstyan, McCauley, Farid,
Ratnasamy, Shenker -- HotNets '22.

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.core` -- the IRS public API: claim / label / revoke /
  validate, plus one-call deployments.
* :mod:`repro.crypto` -- per-photo key pairs, timestamps, Merkle logs,
  payment tokens.
* :mod:`repro.filters` -- Bloom / binary-fuse filters,
  delta updates, analytic sizing.
* :mod:`repro.media` -- synthetic photos, metadata, DCT codec,
  transforms, QIM watermarks, perceptual hashing.
* :mod:`repro.ledger` -- ledgers, registry, proofs, filter export,
  appeals, honesty probes.
* :mod:`repro.netsim` -- discrete-event simulator, latency models.
* :mod:`repro.browser` -- page-load model, IRS extension, site marking.
* :mod:`repro.proxy` -- anonymizing/caching/filter-fronted proxies.
* :mod:`repro.aggregator` -- upload pipeline, robust-hash DB, periodic
  recheck.
* :mod:`repro.workload` -- populations, Zipf traffic, traces, pages.
* :mod:`repro.ecosystem` -- TET adoption dynamics.
* :mod:`repro.attacks` -- section-5 attackers, malicious ledgers,
  censorship scenarios.
* :mod:`repro.metrics` -- summaries and table reporting.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
