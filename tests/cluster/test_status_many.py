"""``status_many_async`` against a loop of ``status_async``.

A batch answers its filter misses together — one span, one weighted
latency observation, counters advanced by their number — and everything
else through ``status_async``.  The loop is the reference: per index the
same answers, the same ``FrontendStats``, the same ``/metrics`` text.
"""

import time
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.checker import ConsistencyChecker
from repro.chaos.history import HistoryRecorder
from repro.cluster import ClusterConfig, LearningBloom, LocalCluster
from repro.core.identifiers import PhotoIdentifier
from repro.obs import Observability
from repro.resilience import Deadline


class Rig:
    """A local cluster behind a learning filter, and a pool of every kind of id."""

    def __init__(self, config: ClusterConfig = None, clock=None):
        self.obs = Observability(clock=clock)
        self.cluster = LocalCluster(
            config=config, filterset=LearningBloom(capacity=256), obs=self.obs
        )
        frontend = self.frontend = self.cluster.frontend
        population = self.cluster.seed_population(16, revoked_fraction=0.5)
        unknown = [PhotoIdentifier("cluster", serial) for serial in range(1, 5)]
        # Filter hits that are not revoked: two claimed ids and two
        # unknown serials the filter gives a false positive for.
        for identifier in (
            *[
                identifier
                for index, identifier in enumerate(population.identifiers)
                if not population.revoked(index)
            ][:2],
            *unknown[:2],
        ):
            frontend.filterset.add(identifier.to_compact())
        self.pool = [*population.identifiers, *unknown]
        self.misses = {
            identifier.serial
            for identifier in self.pool
            if not frontend.filterset.might_be_revoked(identifier.to_compact())
        }

    def batch(self, picks, **kwargs):
        """One ``status_many_async`` call; its answers by index."""
        answers = {}
        self.frontend.status_many_async(
            [self.pool[pick].serial for pick in picks], answers.__setitem__, **kwargs
        )
        return answers

    def loop(self, picks, **kwargs):
        """The reference: one ``status_async`` per id."""
        answers = {}
        for index, pick in enumerate(picks):
            self.frontend.status_async(
                self.pool[pick], partial(answers.__setitem__, index), **kwargs
            )
        return answers

    def spans(self, name):
        return [span for span in self.obs.spans if span.name == name]


@pytest.fixture(scope="module")
def pair():
    """Two identical rigs fed the same history: one by batch, one by loop."""
    return Rig(), Rig()


def test_the_pool_holds_every_kind_of_id():
    rig = Rig()
    kinds = {
        (answer.source, answer.revoked, answer.ok)
        for answer in rig.loop(range(len(rig.pool))).values()
    }
    assert kinds == {
        ("filter", False, True),  # miss, claimed or not
        ("shard", True, True),  # hit, revoked
        ("shard", False, True),  # hit, a false positive on a claimed id
        ("shard", True, False),  # hit, unknown serial: fail-safe + error
    }


@settings(max_examples=60, deadline=None)
@given(
    picks=st.lists(st.integers(min_value=0, max_value=19), max_size=48),
    proof=st.booleans(),
)
def test_a_batch_is_a_loop_of_single_reads(pair, picks, proof):
    batched, looped = pair
    before = {
        name: len(batched.spans(name))
        for name in ("frontend.status", "frontend.status_many")
    }

    answers, expected = batched.batch(picks, proof=proof), looped.loop(picks, proof=proof)
    assert answers == expected
    assert list(answers) == list(expected)  # and fired in the same order
    assert sorted(answers) == list(range(len(picks)))
    assert batched.frontend.stats == looped.frontend.stats
    # Both rigs sit on a clock that never moves, so even the latency
    # histogram's buckets and sum agree.
    assert batched.obs.export_prometheus() == looped.obs.export_prometheus()

    not_missed = [
        pick for pick in picks if batched.pool[pick].serial not in batched.misses
    ]
    assert len(batched.spans("frontend.status")) - before[
        "frontend.status"
    ] == len(not_missed)
    many = batched.spans("frontend.status_many")
    assert len(many) - before["frontend.status_many"] == 1
    assert many[-1].tags == {
        "ids": len(picks), "misses": len(picks) - len(not_missed),
    }
    assert not looped.spans("frontend.status_many")


def test_on_wall_time_a_batchs_misses_share_one_elapsed_time():
    batched, looped = Rig(clock=time.perf_counter), Rig(clock=time.perf_counter)
    picks = list(range(len(batched.pool))) * 2
    assert batched.batch(picks) == looped.loop(picks)
    latency = [
        rig.obs.metrics.get("frontend_status_latency_seconds")
        for rig in (batched, looped)
    ]
    assert latency[0].count == latency[1].count == len(picks)
    misses = sum(
        batched.pool[pick].serial in batched.misses for pick in picks
    )
    # One observation, weighted: every miss fell in the same bucket.
    assert max(latency[0].counts) >= misses > 0


def test_with_an_observer_every_id_is_an_operation_with_its_own_span():
    rig = Rig()
    recorder = HistoryRecorder(rig.cluster.clock)
    rig.frontend.observer = recorder
    picks = list(range(len(rig.pool))) + [0, 0, 17]
    answers = rig.batch(picks)
    assert answers == Rig().loop(picks)
    ops = [op for op in recorder.ops if op.kind == "status"]
    assert [op.serial for op in ops] == [rig.pool[p].serial for p in picks]
    assert len(rig.spans("frontend.status")) == len(picks)
    assert not rig.spans("frontend.status_many")
    report = ConsistencyChecker(placement=rig.cluster.placement).check_spans(
        recorder, rig.obs.spans
    )
    assert report.spans_checked == len(picks) and not report.violations


@pytest.mark.parametrize("refusal", ["deadline", "shed"])
def test_a_miss_is_answered_from_the_filter_whatever_admission_says(refusal):
    config = ClusterConfig(degraded_reads=True)
    kwargs = {}
    if refusal == "deadline":
        kwargs["deadline"] = Deadline.after(0.0, 0.1)
    else:
        config.shed_rate, config.shed_burst = 1e-9, 1
    batched, looped = Rig(config), Rig(config)
    for rig in (batched, looped):
        if refusal == "deadline":
            rig.cluster.manual_clock.advance(1.0)  # the budget is long spent
        else:
            assert rig.frontend.shedder.try_acquire()  # the bucket's one token
    picks = list(range(len(batched.pool)))
    answers = batched.batch(picks, **kwargs)
    assert answers == looped.loop(picks, **kwargs)
    assert batched.frontend.stats == looped.frontend.stats
    for pick, answer in answers.items():
        if batched.pool[pick].serial in batched.misses:
            assert (answer.source, answer.cause) == ("filter", None)
        else:
            assert (answer.source, answer.cause) == ("degraded", refusal)
            assert answer.revoked  # the filter hit, failing closed
    stats = batched.frontend.stats
    refused = stats.deadline_answers if refusal == "deadline" else stats.load_shed
    assert refused == len(picks) - len(batched.misses)
    assert stats.shard_lookups == 0

