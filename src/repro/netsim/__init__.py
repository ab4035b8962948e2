"""Discrete-event network simulation substrate.

The paper's bootstrap-phase claims (sections 4.2-4.4) are about latency
budgets and request loads across browsers, proxies and ledgers.  This
package provides the simulator those experiments run on:

* :mod:`repro.netsim.simulator` -- event loop, clocks.
* :mod:`repro.netsim.rand` -- named, seeded RNG streams.
* :mod:`repro.netsim.latency` -- latency distributions (constant,
  uniform, lognormal, empirical percentile tables) with presets for
  DNS-like resolver latencies [12, 26].
* :mod:`repro.netsim.node` / :mod:`repro.netsim.link` -- topology.
* :mod:`repro.netsim.transport` -- asynchronous request/response RPC.

Every IRS component takes a :class:`Clock` so identical code runs
in-process (tests, prototype bench) and inside the simulator
(latency/load benches).
"""
