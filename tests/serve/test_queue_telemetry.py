"""BoundedQueue backpressure semantics and telemetry aggregation.

Both are exercised single-threaded and with a fake clock — the
policies/percentiles are pure logic; thread interleaving is covered by
the engine tests.
"""

import numpy as np
import pytest

from repro.serve import (
    BoundedQueue,
    FakeClock,
    LatencyStats,
    QueueClosed,
    QueueTimeout,
    ServeTelemetry,
)


class TestBoundedQueue:
    def test_fifo_order(self):
        queue = BoundedQueue(4)
        for item in "abc":
            queue.put(item)
        assert [queue.get() for _ in range(3)] == ["a", "b", "c"]

    def test_block_policy_times_out_when_full(self):
        queue = BoundedQueue(2, "block")
        queue.put(1)
        queue.put(2)
        with pytest.raises(QueueTimeout):
            queue.put(3, timeout=0.0)

    def test_drop_oldest_evicts_and_returns_head(self):
        queue = BoundedQueue(2, "drop_oldest")
        assert queue.put("a") is None
        assert queue.put("b") is None
        assert queue.put("c") == "a"
        assert queue.dropped == 1
        assert [queue.get(), queue.get()] == ["b", "c"]

    def test_get_timeout_on_empty(self):
        with pytest.raises(QueueTimeout):
            BoundedQueue(1).get(timeout=0.0)

    def test_close_rejects_puts_but_drains_gets(self):
        queue = BoundedQueue(4)
        queue.put("tail")
        queue.close()
        with pytest.raises(QueueClosed):
            queue.put("late")
        assert queue.get() == "tail"
        with pytest.raises(QueueClosed):
            queue.get()

    def test_high_water_tracks_deepest_fill(self):
        queue = BoundedQueue(4)
        queue.put(1)
        queue.put(2)
        queue.get()
        queue.put(3)
        assert queue.high_water == 2

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            BoundedQueue(0)
        with pytest.raises(ValueError):
            BoundedQueue(1, policy="spill")


class TestLatencyStats:
    def test_empty_snapshot(self):
        assert LatencyStats().snapshot() == {"count": 0}

    def test_percentiles_in_ms(self):
        stats = LatencyStats()
        for value_s in np.linspace(0.001, 0.100, 100):
            stats.record(value_s)
        snap = stats.snapshot()
        assert snap["count"] == 100
        assert snap["p50_ms"] == pytest.approx(50.5, abs=1.0)
        assert snap["p95_ms"] == pytest.approx(95.0, abs=1.5)
        assert snap["p99_ms"] == pytest.approx(99.0, abs=1.5)
        assert snap["max_ms"] == pytest.approx(100.0)
        assert snap["p50_ms"] <= snap["p95_ms"] <= snap["p99_ms"]


class TestLatencyReservoir:
    """The bounded-memory contract of the percentile accumulator."""

    def test_exact_below_cap(self):
        stats = LatencyStats(cap=100)
        values = [0.010 * (index + 1) for index in range(50)]
        for value in values:
            stats.record(value)
        snap = stats.snapshot()
        expected = np.percentile(np.asarray(values) * 1e3, 50.0)
        assert snap["p50_ms"] == pytest.approx(float(expected))

    def test_memory_stays_bounded_and_moments_stay_exact(self):
        stats = LatencyStats(cap=64)
        values = np.linspace(0.001, 1.0, 10_000)
        for value in values:
            stats.record(float(value))
        assert len(stats._reservoir) == 64
        snap = stats.snapshot()
        assert snap["count"] == 10_000
        assert snap["mean_ms"] == pytest.approx(
            float(values.mean()) * 1e3
        )
        assert snap["max_ms"] == pytest.approx(1000.0)

    def test_percentile_accuracy_on_known_distribution(self, rng):
        """Reservoir percentiles track the exact ones on 50k lognormals.

        This is the regression test for the unbounded-list bug: the
        fix must keep memory O(cap) *without* giving up percentile
        fidelity.  Tolerances are loose enough for sampling noise and
        tight enough to catch a broken reservoir (e.g. one that keeps
        only the head or tail of the stream).
        """
        stats = LatencyStats()  # default cap
        samples = rng.lognormal(mean=-4.0, sigma=0.8, size=50_000)
        for value in samples:
            stats.record(float(value))
        snap = stats.snapshot()
        exact = np.percentile(samples * 1e3, (50.0, 95.0, 99.0))
        assert snap["p50_ms"] == pytest.approx(exact[0], rel=0.05)
        assert snap["p95_ms"] == pytest.approx(exact[1], rel=0.05)
        assert snap["p99_ms"] == pytest.approx(exact[2], rel=0.10)
        assert snap["max_ms"] == pytest.approx(
            float(samples.max()) * 1e3
        )

    def test_rejects_degenerate_cap(self):
        with pytest.raises(ValueError):
            LatencyStats(cap=0)


class TestWorkerTelemetry:
    def test_worker_counters_and_log_line(self):
        telemetry = ServeTelemetry(clock=FakeClock())
        assert telemetry.stats()["workers"] == {
            "spawned": 0, "exited": 0, "live": 0,
        }
        assert "workers" not in telemetry.log_line()
        telemetry.worker_spawned(2)
        telemetry.worker_exited()
        assert telemetry.stats()["workers"] == {
            "spawned": 2, "exited": 1, "live": 1,
        }
        assert "workers 1/2 live" in telemetry.log_line()

    def test_live_counts_the_starting_pool(self):
        telemetry = ServeTelemetry(clock=FakeClock())
        telemetry.workers_started(2)
        telemetry.worker_exited()
        assert telemetry.stats()["workers"] == {
            "spawned": 0, "exited": 1, "live": 1,
        }

    def test_worker_threads_in_stats_and_log_line(self):
        telemetry = ServeTelemetry(clock=FakeClock())
        assert "threads" not in telemetry.stats()["workers"]
        assert "threads/worker" not in telemetry.log_line()
        telemetry.observe_worker_threads(3)
        assert telemetry.stats()["workers"]["threads"] == 3
        assert "3 threads/worker" in telemetry.log_line()


class TestQueueStats:
    def test_stats_snapshot_is_consistent(self):
        queue = BoundedQueue(2, "drop_oldest")
        queue.put("a")
        queue.put("b")
        queue.put("c")  # evicts "a"
        stats = queue.stats()
        assert stats == {
            "depth": 2,
            "capacity": 2,
            "dropped": 1,
            "high_water": 2,
            "closed": False,
        }
        queue.close()
        assert queue.stats()["closed"] is True


class TestServeTelemetry:
    def test_stage_latencies_and_throughput(self):
        clock = FakeClock()
        telemetry = ServeTelemetry(clock=clock)
        t0 = telemetry.frame_submitted()
        clock.advance(0.010)
        t1 = telemetry.frame_submitted()
        clock.advance(0.005)
        dispatch = clock.now()
        clock.advance(0.020)
        telemetry.batch_done([t0, t1], dispatch, clock.now())

        stats = telemetry.stats()
        assert stats["frames_in"] == 2
        assert stats["frames_done"] == 2
        assert stats["batches"] == 1
        assert stats["mean_batch_size"] == 2.0
        # Frame 0 waited 15 ms, frame 1 waited 5 ms for dispatch.
        assert stats["stages"]["queue_wait"]["max_ms"] == pytest.approx(15.0)
        assert stats["stages"]["execute"]["p50_ms"] == pytest.approx(20.0)
        assert stats["stages"]["total"]["max_ms"] == pytest.approx(35.0)
        # 2 frames over the 35 ms submit→done window.
        assert stats["throughput_frames_per_s"] == pytest.approx(
            2 / 0.035
        )

    def test_drops_and_queue_depth(self):
        telemetry = ServeTelemetry(clock=FakeClock())
        telemetry.frame_submitted()
        telemetry.frame_dropped()
        telemetry.observe_queue_depth("ingest", 3)
        telemetry.observe_queue_depth("ingest", 1)
        stats = telemetry.stats()
        assert stats["frames_dropped"] == 1
        assert stats["queue_high_water"] == {"ingest": 3}

    def test_plan_cache_delta_ignores_prior_traffic(
        self, sim_contrast_dataset
    ):
        from repro.api import dataset_tof_plan

        dataset_tof_plan(sim_contrast_dataset)  # traffic before the run
        telemetry = ServeTelemetry(clock=FakeClock())
        dataset_tof_plan(sim_contrast_dataset)
        dataset_tof_plan(sim_contrast_dataset)
        cache = telemetry.stats()["plan_cache"]
        assert cache["hits"] + cache["misses"] == 2
        assert cache["hit_rate"] == pytest.approx(
            cache["hits"] / 2
        )

    def test_log_line_is_one_line(self):
        clock = FakeClock()
        telemetry = ServeTelemetry(clock=clock)
        t0 = telemetry.frame_submitted()
        clock.advance(0.010)
        telemetry.batch_done([t0], t0 + 0.005, clock.now())
        line = telemetry.log_line()
        assert "\n" not in line
        assert "frames/s" in line
        assert "p50/p95/p99" in line


class TestStatsStaleness:
    def test_seq_increases_with_every_recording_call(self):
        """The poller contract: compare one integer, not two dicts.

        Every recording method must bump ``seq`` exactly when the
        snapshot's content can have changed, and reading ``stats()``
        itself must not — otherwise a poller diffing ``seq`` sees
        phantom updates (or misses real ones).
        """
        clock = FakeClock()
        telemetry = ServeTelemetry(clock=clock)
        seen = [telemetry.stats()["seq"]]

        t0 = telemetry.frame_submitted()
        seen.append(telemetry.stats()["seq"])
        telemetry.observe_queue_depth("ingest", 1)
        seen.append(telemetry.stats()["seq"])
        clock.advance(0.010)
        telemetry.batch_done([t0], t0 + 0.005, clock.now())
        seen.append(telemetry.stats()["seq"])
        telemetry.worker_spawned()
        seen.append(telemetry.stats()["seq"])
        telemetry.frame_dropped()
        seen.append(telemetry.stats()["seq"])

        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)  # strictly increasing
        # Reading stats must be side-effect free.
        assert telemetry.stats()["seq"] == seen[-1]


class TestMetricsPublishing:
    def test_recording_calls_feed_the_shared_registry(self):
        """ServeTelemetry is a metrics *publisher* when given a registry."""
        from repro.obs import MetricsRegistry

        clock = FakeClock()
        registry = MetricsRegistry()
        telemetry = ServeTelemetry(clock=clock, metrics=registry)
        t0 = telemetry.frame_submitted()
        t1 = telemetry.frame_submitted()
        clock.advance(0.020)
        telemetry.batch_done([t0, t1], t0 + 0.005, clock.now())
        telemetry.observe_queue_depth("ingest", 3)
        telemetry.worker_spawned(2)
        telemetry.frame_dropped()

        frames = registry.counter(
            "repro_serve_frames_total", labels=("event",)
        )
        assert frames.value(event="submitted") == 2.0
        assert frames.value(event="done") == 2.0
        assert frames.value(event="dropped") == 1.0
        stage = registry.histogram(
            "repro_serve_stage_seconds", labels=("stage",)
        )
        assert stage.snapshot(stage="execute")["count"] == 2
        assert stage.snapshot(stage="total")["count"] == 2
        batch = registry.histogram("repro_serve_batch_size")
        assert batch.snapshot() == {"count": 1, "sum": 2.0}
        depth = registry.gauge(
            "repro_serve_queue_depth", labels=("queue",)
        )
        assert depth.value(queue="ingest") == 3.0
        workers = registry.counter(
            "repro_serve_workers_total", labels=("event",)
        )
        assert workers.value(event="spawned") == 2.0

    def test_worker_threads_gauge(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        telemetry = ServeTelemetry(clock=FakeClock(), metrics=registry)
        telemetry.observe_worker_threads(2)
        telemetry.observe_worker_threads(1)
        gauge = registry.gauge("repro_serve_worker_threads")
        assert gauge.value() == 1.0
