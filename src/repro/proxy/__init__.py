"""IRS proxies: viewer privacy (section 4.2) + load shedding (section 4.4).

Browsers in the bootstrap phase never query ledgers directly.  They ask
an :class:`~repro.proxy.proxy.IrsProxy`, which

1. aggregates the requests of many users (the ledger sees the proxy,
   not the viewer -- the Trusted-Recursive-Resolver / Oblivious-DNS /
   Private-Relay pattern the paper cites);
2. consults the OR of all ledgers' Bloom filters -- a miss proves
   "definitely not revoked" with zero ledger traffic;
3. caches recent ledger answers with a TTL (bounded staleness is
   explicitly acceptable: Nongoal #4, no instantaneous revocation).
"""
