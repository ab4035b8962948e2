"""Fixture: suppression mechanics — valid, covering, and malformed."""

import random


def same_line():
    return random.random()  # repro-lint: allow[no-unseeded-random] fixture exercises same-line coverage


def line_above():
    # repro-lint: allow[no-unseeded-random] fixture exercises line-above coverage
    return random.random()


def not_covered():
    # repro-lint: allow[no-unseeded-random] two lines above the finding: does not cover

    return random.random()  # line 18: still a finding


def wrong_rule():
    return random.random()  # repro-lint: allow[no-silent-except] rule mismatch: does not cover


def missing_reason():
    return random.random()  # repro-lint: allow[no-unseeded-random]


def unknown_rule():
    return random.random()  # repro-lint: allow[no-such-rule] reason given but rule unknown


def deleted_rule():
    return random.random()  # repro-lint: allow[no-wall-clock] a deleted rule's id is unknown too
