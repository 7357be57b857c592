"""End-to-end tracing through the threaded serving engine.

Every sampled frame must come back with a *complete* span tree —
``queue_wait`` → ``execute`` under the ``frame`` root — with every span
closed, even when two worker threads execute batches concurrently, and
the tracer's started/completed counters must balance — also when a
worker fails or backpressure evicts frames.
"""

import threading
from fractions import Fraction

import pytest

from repro.api import Beamformer, create_beamformer
from repro.obs import Observability, span_tree
from repro.serve import ReplaySource, ServeEngine
from repro.ultrasound import stream_gain_drift

N_FRAMES = 8


@pytest.fixture(scope="module")
def frames(sim_contrast_dataset):
    return list(
        stream_gain_drift(sim_contrast_dataset, N_FRAMES, seed=5)
    )


def traced_engine(beamformer, **kwargs):
    obs = Observability.create(sample_rate=1.0)
    kwargs.setdefault("n_workers", 2)
    kwargs.setdefault("log_every_s", 0.0)
    return ServeEngine(beamformer, observability=obs, **kwargs), obs


def completed_roots(obs):
    """``(trace_dict, root_tree)`` per completed trace, oldest first."""
    dumped = obs.tracer.recent(n=64)
    return [(trace, span_tree(trace)) for trace in dumped]


class TestSpanCompleteness:
    def test_every_frame_yields_a_complete_closed_tree(self, frames):
        engine, obs = traced_engine(create_beamformer("das"))
        report = engine.serve(ReplaySource(frames))
        assert report.completed == len(frames)

        roots = completed_roots(obs)
        assert len(roots) == len(frames)
        for trace, root in roots:
            assert trace["owner"] == "engine"
            assert root["name"] == "frame"
            assert root["attrs"]["status"] == "ok"
            # Every span closed — nothing may outlive its trace.
            for span in trace["spans"]:
                assert span["end"] is not None, (
                    f"open span {span['name']} in trace "
                    f"{trace['trace_id']:#x}"
                )
            stages = [c["name"] for c in root["children"]]
            assert stages == ["queue_wait", "execute"]
            queue_wait, execute = root["children"]
            # The pipeline is ordered: the wait ends at dispatch, where
            # the execute span starts, and both sit inside the root.
            assert queue_wait["end"] == execute["start"]
            assert root["start"] <= queue_wait["start"]
            assert execute["end"] <= root["end"]
            assert execute["attrs"]["batch_size"] >= 1

    def test_execute_spans_account_for_every_batch(self, frames):
        # Each frame of a k-frame batch carries batch_size=k on its
        # execute span, so the spans add up to the batch count.
        engine, obs = traced_engine(
            create_beamformer("das"), max_batch=3
        )
        report = engine.serve(ReplaySource(frames))
        sizes = [
            root["children"][1]["attrs"]["batch_size"]
            for _, root in completed_roots(obs)
        ]
        assert len(sizes) == len(frames)
        assert all(1 <= size <= 3 for size in sizes)
        assert sum(Fraction(1, size) for size in sizes) == (
            report.stats["batches"]
        )

    def test_trace_counters_balance(self, frames):
        engine, obs = traced_engine(create_beamformer("das"))
        engine.serve(ReplaySource(frames))
        counter = obs.metrics.counter(
            "repro_traces_total", labels=("event",)
        )
        assert counter.value(event="started") == len(frames)
        assert counter.value(event="completed") == len(frames)


class ExplodingBeamformer(Beamformer):
    name = "exploding"

    def beamform(self, dataset):
        raise RuntimeError("boom")

    def describe(self):
        return {"name": self.name, "backend": "test"}


class GatedBeamformer(Beamformer):
    """DAS whose workers block until the source has been drained."""

    name = "gated_das"

    def __init__(self):
        self.inner = create_beamformer("das")
        self.gate = threading.Event()

    def beamform(self, dataset):
        self.gate.wait()
        return self.inner.beamform(dataset)

    def describe(self):
        return {"name": self.name, "backend": "test"}


def statuses(obs):
    """Root ``status`` attribute of every completed trace."""
    return [root["attrs"]["status"] for _, root in completed_roots(obs)]


class TestFailurePaths:
    def test_failed_run_closes_every_trace(self, frames):
        """A worker exception must not leave sampled traces open.

        The batch that raised and every batch the failed workers
        discard afterwards finish with ``status="error"``, so the
        started/completed counters still balance.
        """
        engine, obs = traced_engine(ExplodingBeamformer(), max_batch=2)
        with pytest.raises(RuntimeError, match="boom"):
            engine.serve(ReplaySource(frames))
        counter = obs.metrics.counter(
            "repro_traces_total", labels=("event",)
        )
        assert counter.value(event="started") == len(frames)
        assert counter.value(event="completed") == len(frames)
        assert statuses(obs) == ["error"] * len(frames)

    def test_dropped_frames_close_as_dropped(self, frames):
        """Under ``drop_oldest`` every trace ends ``dropped`` or ``ok``.

        The workers stay gated until the source is exhausted, so the
        small queues overflow and evict; the evicted frames' traces
        must close as ``dropped`` and the delivered ones as ``ok``.
        """
        beamformer = GatedBeamformer()

        def source():
            yield from frames
            beamformer.gate.set()

        engine, obs = traced_engine(
            beamformer,
            n_workers=1,
            max_batch=1,
            queue_capacity=2,
            backpressure="drop_oldest",
        )
        try:
            report = engine.serve(source())
        finally:
            beamformer.gate.set()
        assert report.dropped  # 8 frames cannot fit in 6 slots
        seen = statuses(obs)
        assert len(seen) == len(frames)
        assert seen.count("dropped") == len(report.dropped)
        assert seen.count("ok") == report.completed
