"""Browser-side IRS: the bootstrap phase's first-mover component.

Section 4.1 proposes that privacy-focused browser vendors adopt IRS by
shipping extension support and running a ledger.  This package models
the browser side:

* :mod:`repro.browser.page` -- web pages as resource graphs, with a
  pinterest-like photo-heavy page generator hook.
* :mod:`repro.browser.loader` -- a critical-rendering-path page-load
  model that answers section 4.3's latency questions: what do
  revocation checks add to render time, blocking vs pipelined?
* :mod:`repro.browser.extension` -- the IRS browser extension: a
  viewing-posture validator with a local result cache and an optional
  in-browser Bloom filter (section 4.4's early-adoption variant).
* :mod:`repro.browser.indicator` -- site marking ("browsers could mark
  such sites (as they do with TLS icons)", section 4.4).
"""
