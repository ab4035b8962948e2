"""Same seed, same sequence; and the sequences are safe to run."""

from itertools import islice

import pytest

from workloads import (
    POPULATION, TOGGLE_SLICE, WORKLOADS, initially_revoked, sequence_hash, stream,
)

# First 2,000 requests of seed 0 (numpy 1.x/2.x PCG64 streams; a numpy
# release that changes Generator output re-pins these, nothing else may).
PINNED = {
    "mixed-open": "85ffa4d0460201ebe6ef83c0edf2209ea570c0bad1370f94bc018ffe8dcdaae1",
    "owner-writes": "7fb49d02d27243a4bd5263bb3fe2f015030f25ddc609f2108516ecdd0915be50",
    "page-views": "8493ccfb56731d48d1c34ed026d6f2bcfb8392017acaaf9ca8a9f50383da6169",
    "revoked-reads": "1a3e9dca5c0417b5b145558b4c8137bd01d59a55fb778a6d355a99a9a0c2cf81",
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_the_pinned_byte_identical_sequence(name):
    assert sequence_hash(name, 0, 2000) == sequence_hash(name, 0, 2000) == PINNED[name]
    assert sequence_hash(name, 1, 2000) != PINNED[name]


@pytest.mark.parametrize("name", ["owner-writes", "mixed-open"])
def test_writes_are_valid_flips_and_never_close_together(name):
    state = initially_revoked(name, 0)
    last_written = {}
    for position, req in enumerate(islice(stream(name, 0), 30000)):
        if req.kind not in ("revoke", "unrevoke"):
            continue
        (index,) = req.ids
        assert index < TOGGLE_SLICE
        assert state[index] == (req.kind == "unrevoke"), "a flip the ledger would refuse"
        state[index] = not state[index]
        assert position - last_written.get(index, -1000) >= 100
        last_written[index] = position


def test_workload_shapes():
    views = list(islice(stream("page-views", 0), 50))
    assert all(r.kind == "status_batch" and len(r.ids) == 64 for r in views)
    assert sum(initially_revoked("page-views", 0)) == POPULATION // 200
    assert all(initially_revoked("revoked-reads", 0))
    writes = [r.kind for r in islice(stream("owner-writes", 0), 300)]
    assert writes.count("claim") == 100 and writes.count("unrevoke") == 100
    mixed = list(islice(stream("mixed-open", 0), 20000))
    dues = [r.due for r in mixed]
    assert dues == sorted(dues)
    share = {k: sum(r.kind == k for r in mixed) / len(mixed) for k in ("status", "claim")}
    assert 0.83 < share["status"] < 0.87 and 0.04 < share["claim"] < 0.06
    seconds = dues[-1]
    assert abs(len(mixed) / seconds - 402) < 10  # 400 arrivals + 2 sync requests a second
    assert sum(r.kind == "bloom" for r in mixed) == pytest.approx(seconds, abs=1)
