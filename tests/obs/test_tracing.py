"""Tracing: sampling, span discipline, rendering.

Pinned behaviours: the zero-sample-rate hot path allocates nothing
(``start_trace`` returns ``None``), ``finish`` is idempotent when an
orphaned delivery races the owner, and the tree helpers reconstruct
the parent/child structure the gateway ``traces`` verb ships.
"""

import os

import pytest

from repro.obs import MetricsRegistry, Tracer, render_trace, span_tree
from repro.serve.clock import FakeClock


class TestSampling:
    def test_rate_zero_returns_none(self):
        tracer = Tracer(sample_rate=0.0)
        assert tracer.start_trace("frame") is None

    def test_rate_one_traces_every_frame(self):
        tracer = Tracer(sample_rate=1.0, clock=FakeClock())
        assert all(
            tracer.start_trace("frame") is not None for _ in range(20)
        )

    def test_fractional_rate_is_seeded_and_partial(self):
        tracer = Tracer(sample_rate=0.5, clock=FakeClock(), seed=7)
        picks = [
            tracer.start_trace("frame") is not None for _ in range(64)
        ]
        again = Tracer(sample_rate=0.5, clock=FakeClock(), seed=7)
        assert picks == [
            again.start_trace("frame") is not None for _ in range(64)
        ]
        assert any(picks) and not all(picks)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)

    def test_trace_ids_are_unique(self):
        tracer = Tracer(sample_rate=1.0, clock=FakeClock())
        ids = {tracer.start_trace("frame").trace_id for _ in range(32)}
        assert len(ids) == 32


class TestTraceLifecycle:
    def make(self):
        clock = FakeClock()
        metrics = MetricsRegistry()
        tracer = Tracer(sample_rate=1.0, clock=clock, metrics=metrics)
        return clock, metrics, tracer

    def test_add_span_and_scope_build_one_tree(self):
        clock, _, tracer = self.make()
        trace = tracer.start_trace("frame", owner="gateway", seq=3)
        trace.add_span("ingress", 0.0, 0.25, nbytes=100)
        with trace.span("execute") as scope:
            clock.advance(0.5)
            scope.set(batch_size=4)
        clock.advance(0.25)
        trace.finish(status="ok")

        (dumped,) = tracer.recent()
        root = span_tree(dumped)
        assert root["name"] == "frame"
        assert root["attrs"] == {"seq": 3, "status": "ok"}
        assert [child["name"] for child in root["children"]] == [
            "ingress", "execute",
        ]
        execute = root["children"][1]
        assert execute["duration"] == pytest.approx(0.5)
        assert execute["attrs"] == {"batch_size": 4}

    def test_scope_closes_and_tags_on_exception(self):
        _, _, tracer = self.make()
        trace = tracer.start_trace("frame")
        with pytest.raises(RuntimeError):
            with trace.span("execute"):
                raise RuntimeError("boom")
        trace.finish(status="error")
        (dumped,) = tracer.recent()
        execute = span_tree(dumped)["children"][0]
        assert execute["end"] is not None
        assert execute["attrs"]["error"] == "RuntimeError"

    def test_finish_is_idempotent(self):
        """An orphaned delivery may race the owner to finish."""
        _, metrics, tracer = self.make()
        trace = tracer.start_trace("frame")
        trace.finish(status="ok")
        trace.finish(status="orphaned")  # loser of the race: no-op
        assert len(tracer.recent()) == 1
        (dumped,) = tracer.recent()
        assert dumped["spans"][0]["attrs"]["status"] == "ok"
        counter = metrics.counter(
            "repro_traces_total", labels=("event",)
        )
        assert counter.value(event="completed") == 1.0

    def test_started_and_completed_counters(self):
        _, metrics, tracer = self.make()
        for _ in range(3):
            tracer.start_trace("frame").finish()
        tracer.start_trace("frame")  # left open: started, not completed
        counter = metrics.counter(
            "repro_traces_total", labels=("event",)
        )
        assert counter.value(event="started") == 4.0
        assert counter.value(event="completed") == 3.0

    def test_bounded_store_and_drain(self):
        clock = FakeClock()
        tracer = Tracer(sample_rate=1.0, clock=clock, capacity=4)
        for index in range(10):
            tracer.start_trace("frame", seq=index).finish()
        recent = tracer.recent(n=16)
        assert len(recent) == 4  # capacity bound, newest kept
        assert [t["spans"][0]["attrs"]["seq"] for t in recent] == [
            6, 7, 8, 9,
        ]
        drained = list(tracer.drain())
        assert len(drained) == 4
        assert tracer.recent() == []

    def test_render_trace_is_indented_and_attributed(self):
        clock, _, tracer = self.make()
        trace = tracer.start_trace("frame", owner="gateway")
        parent = trace.add_span("ingress", 0.0, 1.0, session=1)
        trace.add_span("execute", 0.2, 0.8, parent=parent)
        trace.finish(status="ok")
        (dumped,) = tracer.recent()
        text = render_trace(dumped)
        lines = text.splitlines()
        assert lines[0].startswith("trace 0x")
        assert "owner=gateway" in lines[0]
        assert lines[1].lstrip().startswith("- frame")
        assert "  - ingress" in text and "    - execute" in text
        assert f"pid={os.getpid()}" in text and "session=1" in text
