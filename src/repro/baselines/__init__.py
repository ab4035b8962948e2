"""Baseline systems the paper positions IRS against.

Section 1 discusses Oblivion [28]: "Oblivion is more general than IRS
(focusing on all those impacted by a photo, not just the owner) but
inherently reactive (removing a photo once it is posted, whereas IRS
proactively tries to prevent such photos from being posted or viewed)."

:mod:`repro.baselines.oblivion` implements that reactive model so the
proactive-vs-reactive contrast can be measured (experiment E16).
"""
