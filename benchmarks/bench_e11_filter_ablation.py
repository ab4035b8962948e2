"""E11 (ablation) — Bloom vs the cited "recent advances" [15, 16].

The paper sizes its bootstrap argument with "a standard Bloom filter
(see more recent advances in [9, 15, 16])".  This ablation quantifies
what switching to a Binary Fuse filter (Graf & Lemire 2022) buys the
same deployment: space at equal-or-better FPR, build
cost (ledgers rebuild hourly), and query cost (the proxy hot path).
"""

import numpy as np
import pytest

from repro.filters.binary_fuse import BinaryFuseFilter
from repro.filters.bloom import BloomFilter
from repro.filters.sizing import load_reduction_factor
from repro.metrics.reporting import Table

NUM_KEYS = 50_000
PROBES = 50_000


@pytest.fixture(scope="module")
def keys():
    return [f"photo-{i}".encode() for i in range(NUM_KEYS)]


@pytest.fixture(scope="module")
def built(keys):
    bloom = BloomFilter.for_capacity(NUM_KEYS, 0.02)
    bloom.add_many(keys)
    fuse = BinaryFuseFilter.build(keys)
    return {"bloom (2% target)": bloom, "binary fuse": fuse}


def test_e11_space_and_fpr(built, report, benchmark):
    rng = np.random.default_rng(11)
    table = Table(
        headers=[
            "filter",
            "bits/key",
            "measured FPR",
            "implied load reduction",
        ],
        title="E11: filter family ablation at 50k keys",
    )
    stats = {}
    for name, filt in built.items():
        bits_per_key = 8.0 * filt.nbytes / NUM_KEYS
        fpr = filt.measure_fpr(PROBES, rng)
        stats[name] = (bits_per_key, fpr)
        table.add(
            name,
            f"{bits_per_key:.2f}",
            f"{fpr:.4f}",
            f"{load_reduction_factor(max(fpr, 1e-6)):.0f}x",
        )
    report(table)

    bloom_bpk, bloom_fpr = stats["bloom (2% target)"]
    fuse_bpk, fuse_fpr = stats["binary fuse"]
    # The advances' selling point: ~5x lower FPR at comparable space.
    assert fuse_fpr < bloom_fpr / 3
    assert fuse_bpk < 11.0
    benchmark(lambda: BloomFilter.for_capacity(NUM_KEYS, 0.02))


@pytest.mark.parametrize("family", ["bloom", "fuse"])
def test_e11_build_cost(keys, family, benchmark):
    """Hourly rebuild cost per family (ledger side)."""
    if family == "bloom":
        def build():
            filt = BloomFilter.for_capacity(NUM_KEYS, 0.02)
            filt.add_many(keys)
            return filt
    else:
        def build():
            return BinaryFuseFilter.build(keys)
    result = benchmark.pedantic(build, rounds=2, iterations=1)
    assert result.num_keys if family != "bloom" else True


@pytest.mark.parametrize("family", ["bloom", "fuse"])
def test_e11_query_cost(built, family, benchmark):
    """Proxy hot-path query cost per family."""
    filt = {
        "bloom": built["bloom (2% target)"],
        "fuse": built["binary fuse"],
    }[family]
    probes = [f"probe-{i}".encode() for i in range(2_000)]

    def query_all():
        return sum(1 for p in probes if p in filt)

    benchmark(query_all)


def test_e11_tradeoff_note(built, report, benchmark):
    """What Bloom still wins: incremental insert and OR-merging.  A
    static filter must rebuild to add a key — relevant because the
    ledger's revoked set changes hourly."""
    table = Table(
        headers=["capability", "bloom", "binary fuse"],
        title="E11b: qualitative trade-offs for the IRS deployment",
    )
    table.add("incremental insert", "yes", "no (rebuild)")
    table.add("OR-merge across ledgers", "yes (same geometry)", "no")
    table.add("delta-encodable updates", "yes (bit diffs)", "full rebuild ship")
    table.add("space @ ~0.4% FPR", "~12.8 bits/key", "~9.1-9.9 bits/key")
    report(table)
    # The one quantitative check: to match fuse's measured FPR, Bloom
    # needs more space than fuse uses.
    rng = np.random.default_rng(12)
    fuse = built["binary fuse"]
    fuse_fpr = fuse.measure_fpr(20_000, rng)
    from repro.filters.sizing import bloom_bits_for_fpr

    bloom_bits_needed = bloom_bits_for_fpr(NUM_KEYS, max(fuse_fpr, 1e-4))
    assert bloom_bits_needed / NUM_KEYS > 8.0 * fuse.nbytes / NUM_KEYS * 0.9

    benchmark(lambda: fuse.measure_fpr(2_000, rng))
