"""End-to-end ServeEngine behaviour: parity, conservation, backpressure.

The engine runs real threads, but no test here sleeps or depends on
timing: assertions are interleaving-independent invariants (bit-for-bit
parity with the offline API, frame conservation through shutdown, the
dropped/completed partition under lossy backpressure).
"""

import json
import logging
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.api import Beamformer, create_beamformer
from repro.backend import available_backends, get_backend, set_backend
from repro.models.registry import build_model
from repro.serve import ReplaySource, ServeEngine
from repro.ultrasound import stream_gain_drift

N_FRAMES = 10


@pytest.fixture(scope="module")
def frames(sim_contrast_dataset):
    return list(stream_gain_drift(sim_contrast_dataset, N_FRAMES, seed=11))


@pytest.fixture(scope="module")
def mixed_frames(sim_contrast_dataset):
    # A steered copy is a distinct acquisition geometry (distinct plan
    # key); interleaving the two exercises geometry grouping end to end.
    steered = replace(sim_contrast_dataset, angle_rad=np.deg2rad(5.0))
    straight = stream_gain_drift(sim_contrast_dataset, 4, seed=12)
    angled = stream_gain_drift(steered, 4, seed=13)
    interleaved = []
    for a, b in zip(straight, angled):
        interleaved += [a, b]
    return interleaved


class GatedBeamformer(Beamformer):
    """DAS wrapper whose workers block until ``release()`` — lets tests
    force the pipeline to back up without sleeping."""

    name = "gated_das"

    def __init__(self) -> None:
        self.inner = create_beamformer("das")
        self.gate = threading.Event()

    def release(self) -> None:
        self.gate.set()

    def beamform(self, dataset):
        self.gate.wait()
        return self.inner.beamform(dataset)

    def beamform_batch(self, datasets):
        self.gate.wait()
        return self.inner.beamform_batch(datasets)

    def describe(self) -> dict:
        return {"name": self.name, "backend": "test"}


class ExplodingBeamformer(Beamformer):
    name = "exploding"

    def beamform(self, dataset):
        raise RuntimeError("boom")

    def describe(self):
        return {"name": self.name, "backend": "test"}


class ReleasingSource:
    """Yields recorded frames, then opens the gate — guaranteeing every
    frame was submitted (and backpressure fully applied) before any
    compute happens."""

    def __init__(self, frames, beamformer: GatedBeamformer) -> None:
        self.frames = frames
        self.beamformer = beamformer

    def __iter__(self):
        yield from self.frames
        self.beamformer.release()


class TestLosslessServing:
    def test_no_lost_frames_and_bitwise_parity_das(self, frames):
        beamformer = create_beamformer("das")
        engine = ServeEngine(
            beamformer, max_batch=4, queue_capacity=4, log_every_s=0
        )
        report = engine.serve(ReplaySource(frames))
        assert report.completed == N_FRAMES
        assert report.dropped == []
        for frame, image in zip(frames, report.images):
            assert np.array_equal(image, beamformer.beamform(frame))

    def test_keep_images_false_delivers_to_sink_only(self, frames):
        # The gateway's memory contract: an unbounded push consumer
        # retains nothing per frame; images reach the sink only.
        beamformer = create_beamformer("das")
        engine = ServeEngine(
            beamformer, max_batch=4, keep_images=False, log_every_s=0
        )
        delivered = {}
        report = engine.serve(
            ReplaySource(frames),
            sink=lambda seq, dataset, image: delivered.__setitem__(
                seq, image
            ),
        )
        assert report.completed == 0
        assert all(image is None for image in report.images)
        assert sorted(delivered) == list(range(N_FRAMES))
        for frame, seq in zip(frames, sorted(delivered)):
            assert np.array_equal(
                delivered[seq], beamformer.beamform(frame)
            )

    def test_external_telemetry_records_the_run(self, frames):
        # A caller-owned telemetry instance (the gateway's live stats
        # endpoint) sees the run's counters.
        from repro.serve import ServeTelemetry

        engine = ServeEngine(
            create_beamformer("das"), max_batch=4, log_every_s=0
        )
        telemetry = ServeTelemetry(clock=engine.clock)
        report = engine.serve(ReplaySource(frames), telemetry=telemetry)
        assert telemetry.stats()["frames_done"] == N_FRAMES
        assert report.stats["frames_done"] == N_FRAMES

    def test_bitwise_parity_learned_microbatched(self, frames):
        model = build_model("tiny_vbf", "small", seed=0)
        beamformer = create_beamformer("tiny_vbf", model=model)
        engine = ServeEngine(beamformer, max_batch=4, log_every_s=0)
        report = engine.serve(ReplaySource(frames[:6]))
        assert report.completed == 6
        # Micro-batched stacked forwards must reproduce the offline
        # single-frame path bit for bit (batch-invariant kernels).
        for frame, image in zip(frames, report.images):
            assert np.array_equal(image, beamformer.beamform(frame))

    def test_multiple_workers_preserve_order_and_parity(self, frames):
        beamformer = create_beamformer("das")
        engine = ServeEngine(
            beamformer, max_batch=2, n_workers=3, log_every_s=0
        )
        report = engine.serve(ReplaySource(frames))
        assert report.completed == N_FRAMES
        for frame, image in zip(frames, report.images):
            assert np.array_equal(image, beamformer.beamform(frame))

    def test_mixed_geometries_served_correctly(self, mixed_frames):
        beamformer = create_beamformer("das")
        engine = ServeEngine(beamformer, max_batch=4, log_every_s=0)
        report = engine.serve(ReplaySource(mixed_frames))
        assert report.completed == len(mixed_frames)
        for frame, image in zip(mixed_frames, report.images):
            assert np.array_equal(image, beamformer.beamform(frame))

    def test_tight_queue_block_policy_loses_nothing(self, frames):
        # Capacity 1 forces the ingest thread to block on every frame;
        # conservation through shutdown must still hold.
        engine = ServeEngine(
            create_beamformer("das"),
            max_batch=2,
            queue_capacity=1,
            backpressure="block",
            log_every_s=0,
        )
        report = engine.serve(ReplaySource(frames))
        assert report.completed == N_FRAMES
        assert report.dropped == []

    def test_sink_sees_every_frame_once(self, frames):
        beamformer = create_beamformer("das")
        engine = ServeEngine(beamformer, max_batch=3, log_every_s=0)
        seen: dict[int, np.ndarray] = {}
        lock = threading.Lock()

        def sink(seq, dataset, image):
            with lock:
                assert seq not in seen
                seen[seq] = image

        report = engine.serve(ReplaySource(frames), sink=sink)
        assert sorted(seen) == list(range(N_FRAMES))
        for seq, image in seen.items():
            assert np.array_equal(image, report.images[seq])


class TestEngineReuse:
    @pytest.mark.parametrize("backend", available_backends())
    def test_engine_reuse_across_runs(self, frames, backend):
        """One engine serves run after run, bit-exact every time."""
        beamformer = create_beamformer("das", backend=backend)
        offline = [beamformer.beamform(frame) for frame in frames[:4]]
        engine = ServeEngine(beamformer, n_workers=2, log_every_s=0)
        first = engine.serve(ReplaySource(frames[:4]))
        second = engine.serve(ReplaySource(frames[:4]))
        for reference, one, two in zip(
            offline, first.images, second.images
        ):
            np.testing.assert_array_equal(reference, one)
            np.testing.assert_array_equal(reference, two)
        assert engine.live_workers == 0  # the pool ends with its run

    def test_process_default_backend_reaches_worker_threads(self, frames):
        """A ``set_backend`` default applies inside the serving threads.

        A beamformer created with ``backend=None`` resolves the process
        default when it runs, on whichever thread runs it.  With
        ``numpy-fast`` as the default the workers must produce its
        float32 output, bit-identical to a beamformer bound to it.
        """
        beamformer = create_beamformer("das")
        fast = create_beamformer("das", backend="numpy-fast")
        offline = [fast.beamform(frame) for frame in frames[:4]]
        previous = get_backend()
        set_backend("numpy-fast")
        try:
            report = ServeEngine(
                beamformer, n_workers=2, log_every_s=0
            ).serve(ReplaySource(frames[:4]))
        finally:
            set_backend(previous)
        for reference, image in zip(offline, report.images):
            assert image.dtype == np.complex64
            np.testing.assert_array_equal(reference, image)


class TestBackpressureDropOldest:
    def test_drops_partition_and_survivors_are_correct(self, frames):
        beamformer = GatedBeamformer()
        engine = ServeEngine(
            beamformer,
            max_batch=2,
            queue_capacity=2,
            backpressure="drop_oldest",
            log_every_s=0,
        )
        stream = frames * 3  # 30 frames against ~10 slots of pipeline
        report = engine.serve(ReleasingSource(stream, beamformer))
        assert len(report.images) == len(stream)
        # Conservation: every submitted frame is exactly one of
        # completed / dropped.
        assert report.completed + len(report.dropped) == len(stream)
        for seq, image in enumerate(report.images):
            if seq in set(report.dropped):
                assert image is None
            else:
                assert np.array_equal(
                    image, beamformer.inner.beamform(stream[seq])
                )
        # The pipeline cannot hold 30 in-flight frames at capacity 2:
        # lossy backpressure must actually have dropped something.
        assert report.dropped
        assert report.stats["frames_dropped"] == len(report.dropped)


class TestTelemetryReport:
    def test_stats_reflect_run(self, frames):
        engine = ServeEngine(
            create_beamformer("das"), max_batch=5, log_every_s=0
        )
        report = engine.serve(ReplaySource(frames))
        stats = report.stats
        assert stats["frames_in"] == N_FRAMES
        assert stats["frames_done"] == N_FRAMES
        assert stats["throughput_frames_per_s"] > 0
        assert stats["stages"]["total"]["count"] == N_FRAMES
        assert 1 <= stats["max_batch_size"] <= 5
        # Same geometry throughout: at most one plan build.
        assert stats["plan_cache"]["misses"] <= 1

    def test_batches_respect_max_batch(self, frames):
        engine = ServeEngine(
            create_beamformer("das"), max_batch=3, log_every_s=0
        )
        report = engine.serve(ReplaySource(frames))
        assert report.stats["max_batch_size"] <= 3


class TestFailure:
    def test_worker_error_propagates_without_hanging(self, frames):
        engine = ServeEngine(
            ExplodingBeamformer(),
            max_batch=2,
            queue_capacity=2,
            log_every_s=0,
        )
        with pytest.raises(RuntimeError, match="boom"):
            engine.serve(ReplaySource(frames))

    def test_failure_marks_broken_and_dumps_the_flight_recorder(
        self, frames, caplog
    ):
        engine = ServeEngine(
            ExplodingBeamformer(), n_workers=2, log_every_s=0
        )
        with caplog.at_level(logging.WARNING, logger="repro.serve"):
            with pytest.raises(RuntimeError, match="boom"):
                engine.serve(ReplaySource(frames[:4]))
        assert engine.broken
        dumps = [
            record.getMessage() for record in caplog.records
            if "flight recorder dump" in record.getMessage()
        ]
        # One post-mortem per run, however many workers failed; the
        # ring ends with the failure itself.
        assert len(dumps) == 1
        last = json.loads(dumps[0].splitlines()[-1])
        assert last["event"] == "engine_broken"
        assert last["error"] == "RuntimeError"
        # The next run starts clean.
        engine.beamformer = create_beamformer("das")
        assert engine.serve(ReplaySource(frames[:2])).completed == 2
        assert not engine.broken

    def test_batcher_error_propagates_without_hanging(self):
        # Objects without probe/grid/... blow up inside the batcher
        # thread (dataset_plan_key); the engine must surface that as an
        # exception, not a deadlock of blocked producer and workers.
        engine = ServeEngine(
            create_beamformer("das"),
            max_batch=2,
            queue_capacity=2,
            log_every_s=0,
        )
        with pytest.raises(AttributeError):
            engine.serve([object()] * 10)

    def test_rejects_bad_config(self, frames):
        with pytest.raises(ValueError):
            ServeEngine(create_beamformer("das"), backpressure="spill")
        with pytest.raises(ValueError):
            ServeEngine(create_beamformer("das"), n_workers=0)


class TestLiveWorkerLifecycle:
    """Runtime add/retire of worker threads (the autoscale actuator).

    The source generator triggers the lifecycle calls between frames
    (it runs on the pump thread while workers execute), so the pool is
    resized under live traffic — parity and zero-loss must hold
    through both transitions.
    """

    def test_add_and_retire_during_run_preserve_parity(self, frames):
        das = create_beamformer("das")
        offline = [das.beamform(frame) for frame in frames]
        engine = ServeEngine(
            das, n_workers=1, max_batch=1, log_every_s=0
        )

        def source():
            for index, frame in enumerate(frames):
                if index == 3:
                    assert engine.add_worker()
                if index == 6:
                    assert engine.retire_worker()
                yield frame

        report = engine.serve(source())
        assert report.completed == len(frames)
        assert report.dropped == []
        for reference, image in zip(offline, report.images):
            np.testing.assert_array_equal(reference, image)

    def test_retire_never_empties_the_pool(self, frames):
        das = create_beamformer("das")
        engine = ServeEngine(
            das, n_workers=1, max_batch=1, log_every_s=0
        )
        refused = []

        def source():
            for index, frame in enumerate(frames[:3]):
                if index == 1:
                    refused.append(engine.retire_worker())
                yield frame

        report = engine.serve(source())
        assert report.completed == 3
        assert refused == [False]  # last worker is never retired

    def test_live_resizing_feeds_the_worker_counters(self, frames):
        das = create_beamformer("das")
        engine = ServeEngine(
            das, n_workers=1, max_batch=1, log_every_s=0
        )

        def source():
            for index, frame in enumerate(frames):
                if index == 2:
                    assert engine.add_worker()
                    assert engine.add_worker()
                if index == 5:
                    assert engine.retire_worker()
                yield frame

        report = engine.serve(source())
        assert report.completed == len(frames)
        # The retire token is queued ahead of shutdown, so the retired
        # thread has exited by the time serve() returns.
        assert report.stats["workers"] == {
            "spawned": 2, "exited": 1, "live": 1,
        }

    def test_next_run_starts_from_the_configured_pool(self, frames):
        das = create_beamformer("das")
        engine = ServeEngine(
            das, n_workers=1, max_batch=1, log_every_s=0
        )

        def grow():
            for index, frame in enumerate(frames[:4]):
                if index == 1:
                    assert engine.add_worker()
                yield frame

        engine.serve(grow())
        seen = []

        def observe():
            for frame in frames[:2]:
                seen.append(engine.live_workers)
                yield frame

        report = engine.serve(observe())
        assert report.completed == 2
        assert seen == [1, 1]  # a live add lasts one run only

    def test_lifecycle_refused_outside_a_run(self, frames):
        das = create_beamformer("das")
        engine = ServeEngine(das, n_workers=1, log_every_s=0)
        assert not engine.add_worker()
        assert not engine.retire_worker()
        engine.serve(ReplaySource(frames[:2]))
        assert not engine.add_worker()  # run over: pool is gone

    def test_set_batching_mid_run_reaches_the_scheduler(self, frames):
        das = create_beamformer("das")
        engine = ServeEngine(
            das, n_workers=1, max_batch=1, max_latency_ms=1000.0,
            log_every_s=0,
        )
        sizes = []

        def source():
            for index, frame in enumerate(frames):
                if index == 4:
                    engine.set_batching(max_batch=4)
                yield frame

        report = engine.serve(
            source(),
            sink=lambda seq, dataset, image: sizes.append(seq),
        )
        assert report.completed == len(frames)
        # The live scheduler picked up the new cap: telemetry saw at
        # least one batch above the original max_batch=1.
        assert report.stats["max_batch_size"] >= 2
        with pytest.raises(ValueError):
            engine.set_batching(max_batch=0)


class TestSoak:
    @pytest.mark.slow
    def test_drop_oldest_soak_conserves_every_frame(
        self, sim_contrast_dataset
    ):
        """5k frames under lossy backpressure: nothing lost, no deadlock.

        Every submitted frame must end the run accounted for — delivered
        to the sink exactly once or explicitly dropped by the
        ``drop_oldest`` policy, never both — and the engine must shut
        down gracefully: every worker thread exits (the autouse leak
        guard fails the test otherwise).  Images go to the sink only
        (``keep_images=False``), as behind the gateway, so the soak's
        memory stays flat.  Nightly CI runs this with ``--runslow``.
        """
        n_frames = 5000
        # Feed the generator directly (serve() takes any iterable):
        # materializing 5k datasets up front would hold gigabytes, and
        # streaming is the realistic ingest shape anyway.
        source = stream_gain_drift(sim_contrast_dataset, n_frames, seed=5)
        engine = ServeEngine(
            create_beamformer("das"),
            n_workers=2,
            backpressure="drop_oldest",
            queue_capacity=16,
            keep_images=False,
            log_every_s=0,
        )
        delivered = []
        report = engine.serve(
            source,
            sink=lambda seq, dataset, image: delivered.append(seq),
        )
        dropped = set(report.dropped)
        assert len(delivered) == len(set(delivered))
        assert set(delivered).isdisjoint(dropped)
        assert set(delivered) | dropped == set(range(n_frames))
        assert report.stats["frames_in"] == n_frames
        assert report.stats["frames_done"] == len(delivered)
        assert report.stats["frames_dropped"] == len(dropped)
        assert engine.live_workers == 0
