"""Section 5: direct attacks and unintended consequences.

* :mod:`repro.attacks.attackers` -- the naive attacker (strip/destroy
  labels; self-defeating) and the sophisticated attacker (re-claim a
  copy under a fresh key; defeated by appeals).
* :mod:`repro.attacks.malicious_ledger` -- ledgers that lie about
  status or ignore revocations, for probe/reputation experiments.
* :mod:`repro.attacks.reputation` -- the reputational market dynamics
  the paper counts on to discipline ledgers.
* :mod:`repro.attacks.censorship` -- coercion scenarios and the
  nonprofit non-revocable archive ledger defence.
"""
