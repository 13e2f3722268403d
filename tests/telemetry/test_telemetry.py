"""Tests for tracing."""

import pytest

from repro.sim import Environment
from repro.telemetry import TraceRecorder


class TestTraceRecorder:
    def test_records_with_time(self):
        env = Environment()
        trace = TraceRecorder(env)

        def proc(env):
            trace.record("io", disk=3)
            yield env.timeout(5)
            trace.record("glitch", terminal=7)

        env.process(proc(env))
        env.run()
        events = trace.events()
        assert [(e.time, e.kind) for e in events] == [(0.0, "io"), (5.0, "glitch")]
        assert events[1].fields == {"terminal": 7}

    def test_kind_filtering(self):
        env = Environment()
        trace = TraceRecorder(env, kinds={"glitch"})
        trace.record("io", disk=1)
        trace.record("glitch")
        assert len(trace) == 1
        assert trace.summary() == {"glitch": 1}

    def test_bounded_capacity_drops_oldest(self):
        env = Environment()
        trace = TraceRecorder(env, capacity=3)
        for i in range(5):
            trace.record("tick", i=i)
        assert len(trace) == 3
        assert trace.dropped == 2
        assert [e.fields["i"] for e in trace.events()] == [2, 3, 4]
        assert trace.counts["tick"] == 5  # counts are exact

    def test_between(self):
        env = Environment()
        trace = TraceRecorder(env)

        def proc(env):
            for _ in range(5):
                trace.record("tick")
                yield env.timeout(1)

        env.process(proc(env))
        env.run()
        assert len(trace.between(1.0, 3.0)) == 2

    def test_events_by_kind(self):
        env = Environment()
        trace = TraceRecorder(env)
        trace.record("a")
        trace.record("b")
        trace.record("a")
        assert len(trace.events("a")) == 2

    def test_clear(self):
        env = Environment()
        trace = TraceRecorder(env)
        trace.record("x")
        trace.clear()
        assert len(trace) == 0
        assert trace.summary() == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceRecorder(Environment(), capacity=0)
