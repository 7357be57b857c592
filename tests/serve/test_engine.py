"""End-to-end ServeEngine behaviour: parity, conservation, backpressure.

The engine runs real threads, but no test here sleeps or depends on
timing: assertions are interleaving-independent invariants (bit-for-bit
parity with the offline API, frame conservation through shutdown, the
dropped/completed partition under lossy backpressure).
"""

import json
import logging
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.api import Beamformer, create_beamformer
from repro.backend import available_backends, get_backend, set_backend
from repro.models.registry import build_model
from repro.serve import ReplaySource, ServeEngine, ServeTelemetry
from repro.ultrasound import stream_gain_drift

N_FRAMES = 10

#: Bound on every wait for the engine; exceeding it fails the test.
WAIT_S = 30.0


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
        self.entered = threading.Event()  # a worker reached the gate

    def release(self) -> None:
        self.gate.set()

    def beamform(self, dataset):
        self.entered.set()
        self.gate.wait()
        return self.inner.beamform(dataset)

    def beamform_batch(self, datasets):
        self.entered.set()
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


class WatchedDataset:
    """A dataset proxy whose ``keyed`` event is set once its geometry
    (``probe``) has been read."""

    def __init__(self, dataset) -> None:
        self._dataset = dataset
        self.keyed = threading.Event()

    def __getattr__(self, name):
        if name == "probe":
            self.keyed.set()
        return getattr(self._dataset, name)


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

    def test_ingest_is_the_only_queue_and_capacity_bounds_it(
        self, frames
    ):
        # perfbench reads mean_batch_size and queue_high_water; every
        # waiting frame sits in the ingest queue, under its bound.
        engine = ServeEngine(
            create_beamformer("das"), max_batch=2, queue_capacity=3,
            n_workers=2, log_every_s=0,
        )
        stats = engine.serve(ReplaySource(frames)).stats
        assert set(stats["queue_high_water"]) == {"ingest"}
        assert 1 <= stats["queue_high_water"]["ingest"] <= 3
        assert 1.0 <= stats["mean_batch_size"] <= 2.0
        assert stats["mean_batch_size"] == N_FRAMES / stats["batches"]

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

    def test_unkeyable_frame_error_propagates_without_hanging(self):
        # Objects without probe/grid/... cannot be keyed by geometry
        # (dataset_plan_key); the engine must surface that as an
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
        # thread has exited by the time serve() returns.  The pool is
        # 1 worker, plus 2 adds, minus 1 retire.
        workers = report.stats["workers"]
        assert workers.pop("threads") >= 1
        assert workers == {"spawned": 2, "exited": 1, "live": 2}

    def test_live_counts_the_pool_the_run_starts_with(self, frames):
        das = create_beamformer("das")
        engine = ServeEngine(
            das, n_workers=2, max_batch=1, log_every_s=0
        )
        live = []

        def source():
            for index, frame in enumerate(frames):
                if index == 3:
                    assert engine.retire_worker()
                yield frame

        report = engine.serve(
            source(),
            sink=lambda seq, dataset, image: live.append(
                engine.live_workers
            ),
        )
        assert report.completed == len(frames)
        assert live[-1] == 1
        workers = report.stats["workers"]
        assert (workers["spawned"], workers["exited"]) == (0, 1)
        assert workers["live"] == live[-1]

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

    def test_max_batch_is_validated_before_any_run(self):
        with pytest.raises(ValueError):
            ServeEngine(create_beamformer("das"), max_batch=0)
        engine = ServeEngine(create_beamformer("das"), max_batch=2)
        with pytest.raises(ValueError):
            engine.set_batching(max_batch=0)
        assert engine.max_batch == 2

    def test_set_batching_mid_run_reaches_the_workers(self, frames):
        # The worker takes frame 0 under max_batch=1 and blocks on it;
        # the cap then rises to 4, and the four frames queued behind it
        # go as one batch once the gate opens.
        beamformer = GatedBeamformer()
        engine = ServeEngine(
            beamformer, n_workers=1, max_batch=1, log_every_s=0
        )

        def source():
            try:
                yield frames[0]
                assert beamformer.entered.wait(timeout=WAIT_S)
                engine.set_batching(max_batch=4)
                yield from frames[1:5]
                beamformer.release()
            finally:
                beamformer.release()  # never leave a worker at the gate

        report = engine.serve(source())
        assert report.completed == 5
        assert report.stats["batches"] == 2
        assert report.stats["max_batch_size"] == 4
        with pytest.raises(ValueError):
            engine.set_batching(max_batch=0)
        assert engine.max_batch == 4


class TestWorkConservingDispatch:
    """Workers take frames straight from the ingest queue.

    An idle worker gets a frame at once, and a busy pool batches what
    queued up meanwhile.  A source generator resumes only after its
    last frame is in the ingest queue, which orders the steps below;
    each wait for the engine is bounded by ``WAIT_S`` and fails the
    test when it expires.
    """

    def test_lockstep_frames_go_straight_to_the_idle_worker(self, frames):
        das = create_beamformer("das")
        engine = ServeEngine(
            das, n_workers=1, max_batch=4, log_every_s=0,
        )
        delivered = threading.Semaphore(0)

        def source():
            for index, frame in enumerate(frames):
                yield frame
                assert delivered.acquire(timeout=WAIT_S), (
                    f"frame {index} was held while the worker was idle"
                )

        report = engine.serve(
            source(), sink=lambda seq, dataset, image: delivered.release()
        )
        assert report.completed == len(frames)
        assert report.stats["batches"] == len(frames)
        for frame, image in zip(frames, report.images):
            np.testing.assert_array_equal(das.beamform(frame), image)

    def test_freed_worker_takes_the_pending_frames_as_one_batch(
        self, frames
    ):
        beamformer = GatedBeamformer()
        engine = ServeEngine(
            beamformer, n_workers=1, max_batch=4, log_every_s=0,
        )
        delivered = threading.Semaphore(0)

        def source():
            try:
                yield frames[0]
                assert beamformer.entered.wait(timeout=WAIT_S), (
                    "frame 0 was held while the worker was idle"
                )
                yield frames[1]
                yield frames[2]
                beamformer.release()
                for index in range(3):
                    assert delivered.acquire(timeout=WAIT_S), (
                        f"{3 - index} frames were held while the worker "
                        f"was idle"
                    )
            finally:
                beamformer.release()  # never leave a worker at the gate

        report = engine.serve(
            source(), sink=lambda seq, dataset, image: delivered.release()
        )
        assert report.completed == 3
        stats = report.stats
        assert stats["batches"] == 2
        assert stats["max_batch_size"] == 2

    def test_retire_is_not_starved_by_pending_frames(
        self, mixed_frames, monkeypatch
    ):
        # Both workers are busy and two frames of different geometries
        # are queued when the retire is requested: the first worker to
        # free up must take the retire, and the survivor runs both
        # queued frames.
        frames = mixed_frames
        beamformer = GatedBeamformer()
        engine = ServeEngine(
            beamformer, n_workers=2, max_batch=4, log_every_s=0,
        )
        entered = threading.Semaphore(0)
        original_batch = GatedBeamformer.beamform_batch

        def counting_batch(self, datasets):
            entered.release()
            return original_batch(self, datasets)

        monkeypatch.setattr(GatedBeamformer, "beamform_batch", counting_batch)
        threads: dict[int, str] = {}
        delivered = threading.Semaphore(0)

        def sink(seq, dataset, image):
            threads[seq] = threading.current_thread().name
            delivered.release()

        def source():
            try:
                yield frames[0]
                yield frames[1]
                for _ in range(2):
                    assert entered.acquire(timeout=WAIT_S)
                assert engine.retire_worker()
                yield frames[2]
                yield frames[3]
                beamformer.release()
                for _ in range(4):
                    assert delivered.acquire(timeout=WAIT_S)
            finally:
                beamformer.release()

        report = engine.serve(source(), sink=sink)
        assert report.completed == 4
        assert threads[2] == threads[3]
        assert report.stats["workers"]["exited"] == 1

    def test_retire_wakes_an_idle_worker(self, frames):
        # With no frame in sight, retire_worker() on an idle two-worker
        # pool makes one worker exit at once.
        exited = threading.Event()

        class ExitTelemetry(ServeTelemetry):
            def worker_exited(self, count=1):
                super().worker_exited(count)
                exited.set()

        das = create_beamformer("das")
        engine = ServeEngine(das, n_workers=2, log_every_s=0)
        seen_before_first_frame = []

        def source():
            assert engine.retire_worker()
            seen_before_first_frame.append(exited.wait(timeout=WAIT_S))
            yield from frames[:3]

        report = engine.serve(
            source(), telemetry=ExitTelemetry(clock=engine.clock)
        )
        assert seen_before_first_frame == [True]
        assert report.completed == 3
        assert report.stats["frames_in"] == 3
        workers = report.stats["workers"]
        assert (workers["exited"], workers["live"]) == (1, 1)
        for frame, image in zip(frames, report.images):
            np.testing.assert_array_equal(das.beamform(frame), image)

    def test_busy_pool_batches_each_geometry_apart(
        self, mixed_frames, monkeypatch
    ):
        # Frames of two geometries queue up, interleaved, behind the
        # gated worker; it then takes them as one batch per geometry,
        # oldest first.
        from repro.api import dataset_plan_key

        beamformer = GatedBeamformer()
        batches = []
        original_batch = GatedBeamformer.beamform_batch

        def recording_batch(self, datasets):
            batches.append([dataset_plan_key(d) for d in datasets])
            return original_batch(self, datasets)

        monkeypatch.setattr(
            GatedBeamformer, "beamform_batch", recording_batch
        )
        engine = ServeEngine(
            beamformer, n_workers=1, max_batch=4, log_every_s=0,
        )

        def source():
            try:
                yield mixed_frames[0]
                assert beamformer.entered.wait(timeout=WAIT_S)
                yield from mixed_frames[1:5]
                beamformer.release()
            finally:
                beamformer.release()

        report = engine.serve(source())
        assert report.completed == 5
        straight = dataset_plan_key(mixed_frames[0])
        angled = dataset_plan_key(mixed_frames[1])
        assert batches == [[straight], [angled, angled], [straight, straight]]
        for frame, image in zip(mixed_frames, report.images):
            np.testing.assert_array_equal(
                beamformer.inner.beamform(frame), image
            )

    def test_drop_oldest_reaches_every_waiting_frame(self, frames):
        # The only worker is gated on frame 0; frames 1-6 wait in a
        # 2-slot queue, so eviction drops 1-4 and 5 and 6 then run as
        # one batch.  The source sends a frame only once the engine has
        # read the previous one's geometry, so every frame has reached
        # the place it waits in; one waiting outside the bounded queue
        # would escape eviction.
        beamformer = GatedBeamformer()
        engine = ServeEngine(
            beamformer, n_workers=1, max_batch=4, queue_capacity=2,
            backpressure="drop_oldest", log_every_s=0,
        )
        watched = [WatchedDataset(frame) for frame in frames[:7]]

        def source():
            try:
                yield watched[0]
                assert beamformer.entered.wait(timeout=WAIT_S)
                for frame in watched[1:]:
                    yield frame
                    assert frame.keyed.wait(timeout=WAIT_S)
                beamformer.release()
            finally:
                beamformer.release()

        report = engine.serve(source())
        assert report.dropped == [1, 2, 3, 4]
        assert [seq for seq, image in enumerate(report.images)
                if image is not None] == [0, 5, 6]
        assert report.stats["batches"] == 2
        assert report.stats["max_batch_size"] == 2
        for seq in (0, 5, 6):
            np.testing.assert_array_equal(
                beamformer.inner.beamform(frames[seq]), report.images[seq]
            )

    def test_many_workers_conserve_frames_under_fast_switching(
        self, mixed_frames
    ):
        # More workers than cores, mixed geometries, live add/retire and
        # a 10 us switch interval: a lost wake-up in the hand-off would
        # strand a frame (a hang) and a lost update would run one twice.
        stream = mixed_frames * 4
        engine = ServeEngine(
            create_beamformer("das"), n_workers=6, max_batch=2,
            log_every_s=0,
        )
        delivered: list[int] = []
        lock = threading.Lock()

        def sink(seq, dataset, image):
            with lock:
                delivered.append(seq)

        def source():
            for index, frame in enumerate(stream):
                if index % 8 == 3:
                    engine.add_worker()
                if index % 8 == 6:
                    engine.retire_worker()
                yield frame

        reports = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread = threading.Thread(
                target=lambda: reports.append(engine.serve(source(), sink))
            )
            thread.start()
            thread.join(timeout=4 * WAIT_S)
        finally:
            sys.setswitchinterval(previous)
        assert not thread.is_alive(), "serve did not finish"
        assert sorted(delivered) == list(range(len(stream)))
        stats = reports[0].stats
        assert stats["frames_done"] == len(stream)
        assert stats["max_batch_size"] <= 2
        assert engine.live_workers == 0


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
