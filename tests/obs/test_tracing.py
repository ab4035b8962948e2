"""Span lifecycle: ids, parenting, stack discipline under exceptions."""

import pytest

from repro.obs import Tracer


class FakeClock:
    """A settable clock so tests control every timestamp."""

    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestManualSpans:
    def test_sequential_ids_and_fresh_traces(self):
        tracer = Tracer()
        a = tracer.start("a")
        b = tracer.start("b")
        assert (a.span_id, b.span_id) == (1, 2)
        # Parentless spans each mint a new trace.
        assert (a.trace_id, b.trace_id) == (1, 2)
        assert a.parent_id is None

    def test_explicit_parent_joins_the_trace(self):
        tracer = Tracer()
        root = tracer.start("root")
        child = tracer.start("child", parent=root)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id

    def test_timestamps_come_from_the_clock(self):
        clock = FakeClock(10.0)
        tracer = Tracer(clock)
        span = tracer.start("op")
        clock.advance(0.5)
        span.event("retry", attempt=1)
        clock.advance(0.5)
        span.end(ok=True)
        assert span.started_at == 10.0
        assert span.ended_at == 11.0
        assert span.duration == pytest.approx(1.0)
        assert span.events == [(10.5, "retry", {"attempt": 1})]
        assert span.tags["ok"] is True

    def test_end_is_idempotent(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        span = tracer.start("op")
        span.end()
        first = span.ended_at
        clock.advance(1.0)
        span.end(late=True)
        assert span.ended_at == first
        assert "late" not in span.tags
        assert len(tracer) == 1

    def test_duration_requires_end(self):
        span = Tracer().start("op")
        with pytest.raises(ValueError):
            _ = span.duration

    def test_open_span_accounting(self):
        tracer = Tracer()
        span = tracer.start("op")
        assert tracer.open_spans == 1
        span.end()
        assert tracer.open_spans == 0
        assert tracer.by_name("op") == [span]

    def test_retention_ring_keeps_only_the_most_recent_spans(self):
        tracer = Tracer(retain=3)
        for i in range(5):
            tracer.start(f"op{i}").end()
        assert [span.name for span in tracer.finished] == ["op2", "op3", "op4"]
        assert len(tracer) == 3 and tracer.open_spans == 0
        assert tracer.by_name("op0") == []
        # Ids keep counting: a ring drops spans, it does not reuse them.
        assert tracer.start("next").span_id == 6
        with pytest.raises(ValueError):
            Tracer(retain=0)


class TestContextManagerSpans:
    def test_nested_with_blocks_parent_automatically(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id
        # Completion order: inner closes first.
        assert [s.name for s in tracer.finished] == ["inner", "outer"]

    def test_manual_span_inside_with_block_joins_the_stack_top(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            manual = tracer.start("manual")
        assert manual.parent_id == outer.span_id

    def test_exception_tags_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        inner, outer = tracer.by_name("inner")[0], tracer.by_name("outer")[0]
        for span in (inner, outer):
            assert span.finished
            assert span.status == "error"
            assert span.tags["error"] == "RuntimeError: boom"
        # The active-span stack unwound completely.
        assert tracer.current() is None
        assert tracer.open_spans == 0

    def test_nested_exception_parenting_survives(self):
        """Children created before the raise keep correct parents."""
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("a") as a:
                with tracer.span("b") as b:
                    tracer.start("leaf").end()
                    raise ValueError("x")
        leaf = tracer.by_name("leaf")[0]
        assert leaf.parent_id == b.span_id
        assert leaf.trace_id == a.trace_id
        assert leaf.status == "ok"  # finished before the raise

    def test_success_path_leaves_status_ok(self):
        tracer = Tracer()
        with tracer.span("op") as span:
            span.set_tag(serial=7)
        assert span.status == "ok"
        assert span.tags == {"serial": 7}
