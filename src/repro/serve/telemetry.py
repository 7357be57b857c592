"""Serving observability: per-stage latency, throughput, queue depth.

One :class:`ServeTelemetry` instance rides along a serving run.  Every
frame contributes to three stage histograms —

* ``queue_wait`` — submit → a worker takes the frame,
* ``execute`` — taken → beamformed,
* ``total`` — submit → beamformed,

plus batch-size and queue-depth gauges and the ToF-plan-cache hit rate
over the run.  The hit rate is a delta against the process-wide cache
counters, so earlier runs don't pollute it — but it attributes *all*
cache traffic during the run to this run: concurrent serving runs (or a
mid-run ``clear_tof_plan_cache``) will skew the reported rate.  Run one
engine at a time when the hit rate matters.  ``stats()`` returns the
whole picture
as one dict (the shape serialized into ``BENCH_serve.json``);
``log_line()`` compresses it into the periodic one-liner the engine
logs.

Worker lifecycle counters make up ``stats()["workers"]``: the pool a
run starts with (:meth:`workers_started`), the engine's live
``add_worker`` / ``retire_worker`` (:meth:`worker_spawned` /
:meth:`worker_exited`), the resulting ``live`` pool, and the
``threads`` each worker gets from the process thread budget
(:meth:`observe_worker_threads`, see :mod:`repro.runtime`).

Latency samples are held in a **bounded reservoir**
(:class:`LatencyStats`): the first ``cap`` samples are kept exactly,
after which reservoir sampling keeps a uniform subsample, so a
long-running engine's memory stays flat no matter how many frames it
serves.  ``count``/``mean``/``max`` stay exact; percentiles come from
the reservoir (accuracy pinned by ``tests/serve``).
"""

from __future__ import annotations

import random
import threading

import numpy as np

from repro.beamform.tof import tof_plan_cache_stats
from repro.serve.clock import Clock, MonotonicClock

PERCENTILES = (50.0, 95.0, 99.0)

#: Default latency-reservoir size.  4096 uniform samples put the p99
#: estimate within a few percent of the exact value (see the accuracy
#: test in ``tests/serve/test_queue_telemetry.py``) at a fixed 32 KiB
#: per stage histogram.
RESERVOIR_CAP = 4096


class LatencyStats:
    """Bounded-memory latency accumulator with percentile snapshots.

    The first ``cap`` samples are stored exactly; from then on classic
    reservoir sampling (Vitter's algorithm R) maintains a uniform random
    subsample of everything seen, so percentile estimates stay unbiased
    while memory stays O(cap) forever.  Count, mean and max are tracked
    exactly regardless.

    The replacement RNG is seeded deterministically so telemetry
    snapshots are reproducible run-to-run given the same sample stream.
    """

    def __init__(self, cap: int = RESERVOIR_CAP) -> None:
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        self.cap = cap
        self._reservoir: list[float] = []
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._rng = random.Random(0x5EED)

    def record(self, seconds: float) -> None:
        """Fold one latency sample into the reservoir."""
        value = float(seconds)
        self._count += 1
        self._sum += value
        if self._count == 1 or value > self._max:
            self._max = value
        if len(self._reservoir) < self.cap:
            self._reservoir.append(value)
            return
        # Reservoir replacement: keep each of the N samples seen so far
        # with equal probability cap/N.
        slot = self._rng.randrange(self._count)
        if slot < self.cap:
            self._reservoir[slot] = value

    @property
    def count(self) -> int:
        """Exact number of samples recorded (not just retained)."""
        return self._count

    def snapshot(self) -> dict:
        """``{count, mean_ms, p50_ms, p95_ms, p99_ms, max_ms}``."""
        if not self._count:
            return {"count": 0}
        values = np.asarray(self._reservoir) * 1e3
        p50, p95, p99 = np.percentile(values, PERCENTILES)
        return {
            "count": int(self._count),
            "mean_ms": float(self._sum / self._count * 1e3),
            "p50_ms": float(p50),
            "p95_ms": float(p95),
            "p99_ms": float(p99),
            "max_ms": float(self._max * 1e3),
        }


class ServeTelemetry:
    """Thread-safe counters and histograms for one serving run.

    Args:
        clock: time source (defaults to the monotonic clock).
        metrics: optional :class:`repro.obs.MetricsRegistry` to publish
            into.  When given, every recording call also lands in the
            exported metric families (``repro_serve_frames_total``,
            ``repro_serve_stage_seconds``, ``repro_serve_batch_size``,
            ``repro_serve_queue_depth``, ``repro_serve_workers_total``,
            ``repro_serve_worker_threads``)
            so the gateway ``metrics`` verb and ``python -m repro.obs``
            see the same numbers as :meth:`stats`.

    Every recording method bumps a monotonically increasing ``seq``
    (surfaced in :meth:`stats`), so pollers detect "anything changed
    since my last read?" with one integer compare instead of a dict
    diff.
    """

    def __init__(
        self, clock: Clock | None = None, metrics: object | None = None
    ) -> None:
        self.clock = clock or MonotonicClock()
        self._lock = threading.Lock()
        self._seq = 0
        self._m_frames = None
        self._m_stage = None
        self._m_batch = None
        self._m_queue = None
        self._m_workers = None
        self._m_threads = None
        if metrics is not None:
            self._m_frames = metrics.counter(
                "repro_serve_frames_total",
                "Frames through the serve pipeline, by outcome.",
                labels=("event",),
            )
            self._m_stage = metrics.histogram(
                "repro_serve_stage_seconds",
                "Per-frame latency by pipeline stage.",
                labels=("stage",),
            )
            self._m_batch = metrics.histogram(
                "repro_serve_batch_size",
                "Frames per dispatched micro-batch.",
                buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
            )
            self._m_queue = metrics.gauge(
                "repro_serve_queue_depth",
                "Last observed depth of the named engine queue.",
                labels=("queue",),
            )
            self._m_workers = metrics.counter(
                "repro_serve_workers_total",
                "Worker add/retire events.",
                labels=("event",),
            )
            self._m_threads = metrics.gauge(
                "repro_serve_worker_threads",
                "BLAS and cnative threads each serving worker may use.",
            )
        self._stages = {
            "queue_wait": LatencyStats(),
            "execute": LatencyStats(),
            "total": LatencyStats(),
        }
        self._batch_sizes = LatencyStats()
        self._queue_high_water: dict[str, int] = {}
        # Control window: parallel accumulators reset on every
        # control_snapshot() read, so the controller reacts to *recent*
        # behaviour instead of run-cumulative percentiles that take
        # forever to move once the run is long.
        self._window_stages = {
            "queue_wait": LatencyStats(),
            "execute": LatencyStats(),
            "total": LatencyStats(),
        }
        self._window_batch_sizes = LatencyStats()
        self._window_frames_in = 0
        self._window_frames_done = 0
        self._window_frames_dropped = 0
        self._queue_last: dict[str, int] = {}
        self._frames_in = 0
        self._frames_done = 0
        self._frames_dropped = 0
        self._first_in: float | None = None
        self._last_done: float | None = None
        self._workers_started = 0
        self._workers_spawned = 0
        self._workers_exited = 0
        self._worker_threads: int | None = None
        self._cache_start = tof_plan_cache_stats()

    # -- recording -------------------------------------------------------

    def frame_submitted(self) -> float:
        """Count one ingested frame; returns its submit timestamp."""
        now = self.clock.now()
        with self._lock:
            self._seq += 1
            self._frames_in += 1
            self._window_frames_in += 1
            if self._first_in is None:
                self._first_in = now
        if self._m_frames is not None:
            self._m_frames.inc(event="submitted")
        return now

    def frame_dropped(self, count: int = 1) -> None:
        """Count frames evicted by backpressure."""
        with self._lock:
            self._seq += 1
            self._frames_dropped += count
            self._window_frames_dropped += count
        if self._m_frames is not None:
            self._m_frames.inc(count, event="dropped")

    def batch_done(
        self,
        submit_times: list[float],
        dispatch_time: float,
        done_time: float,
    ) -> None:
        """Record one executed micro-batch's per-frame stage latencies.

        Args:
            submit_times: per-frame submit timestamps (engine clock).
            dispatch_time: when a worker took the batch.
            done_time: when its images were available.
        """
        execute = done_time - dispatch_time
        if self._m_batch is not None:
            self._m_batch.observe(len(submit_times))
            for submitted in submit_times:
                total = done_time - submitted
                self._m_stage.observe(
                    max(0.0, total - execute), stage="queue_wait"
                )
                self._m_stage.observe(execute, stage="execute")
                self._m_stage.observe(total, stage="total")
            self._m_frames.inc(len(submit_times), event="done")
        with self._lock:
            self._seq += 1
            self._batch_sizes.record(len(submit_times))
            self._window_batch_sizes.record(len(submit_times))
            for submitted in submit_times:
                total = done_time - submitted
                wait = max(0.0, total - execute)
                self._stages["queue_wait"].record(wait)
                self._stages["execute"].record(execute)
                self._stages["total"].record(total)
                self._window_stages["queue_wait"].record(wait)
                self._window_stages["execute"].record(execute)
                self._window_stages["total"].record(total)
            self._frames_done += len(submit_times)
            self._window_frames_done += len(submit_times)
            self._last_done = done_time

    def observe_queue_depth(self, name: str, depth: int) -> None:
        """Track the high-water mark of the named queue."""
        with self._lock:
            self._seq += 1
            previous = self._queue_high_water.get(name, 0)
            self._queue_high_water[name] = max(previous, depth)
            self._queue_last[name] = depth
        if self._m_queue is not None:
            self._m_queue.set(depth, queue=name)

    # -- worker lifecycle ------------------------------------------------

    def workers_started(self, count: int) -> None:
        """Record the worker pool a run starts with.

        Counted in ``live`` only: ``spawned`` and ``exited`` count the
        live add/retire events.
        """
        with self._lock:
            self._seq += 1
            self._workers_started += count

    def observe_worker_threads(self, threads: int | None) -> None:
        """Record the threads each worker may use (``None``: no budget)."""
        with self._lock:
            self._seq += 1
            self._worker_threads = threads
        if self._m_threads is not None and threads is not None:
            self._m_threads.set(threads)

    def worker_spawned(self, count: int = 1) -> None:
        """Count worker threads added to a live run."""
        with self._lock:
            self._seq += 1
            self._workers_spawned += count
        if self._m_workers is not None:
            self._m_workers.inc(count, event="spawned")

    def worker_exited(self, count: int = 1) -> None:
        """Count worker threads retired from a live run."""
        with self._lock:
            self._seq += 1
            self._workers_exited += count
        if self._m_workers is not None:
            self._m_workers.inc(count, event="exited")

    # -- reporting -------------------------------------------------------

    def stats(self) -> dict:
        """Aggregate view of the run so far (JSON-serializable)."""
        cache_now = tof_plan_cache_stats()
        with self._lock:
            hits = cache_now["hits"] - self._cache_start["hits"]
            misses = cache_now["misses"] - self._cache_start["misses"]
            lookups = hits + misses
            elapsed = None
            throughput = None
            if self._first_in is not None and self._last_done is not None:
                elapsed = self._last_done - self._first_in
                if elapsed > 0:
                    throughput = self._frames_done / elapsed
            batches = self._batch_sizes
            workers = {
                "spawned": self._workers_spawned,
                "exited": self._workers_exited,
                "live": max(
                    0,
                    self._workers_started + self._workers_spawned
                    - self._workers_exited,
                ),
            }
            if self._worker_threads is not None:
                workers["threads"] = self._worker_threads
            return {
                # Staleness signal: bumped by every recording call, so
                # pollers compare one integer instead of diffing dicts.
                "seq": self._seq,
                "frames_in": self._frames_in,
                "frames_done": self._frames_done,
                "frames_dropped": self._frames_dropped,
                "elapsed_s": elapsed,
                "throughput_frames_per_s": throughput,
                "batches": batches.count,
                "mean_batch_size": (
                    batches._sum / batches.count if batches.count else None
                ),
                "max_batch_size": (
                    int(batches._max) if batches.count else None
                ),
                "stages": {
                    name: stats.snapshot()
                    for name, stats in self._stages.items()
                },
                "workers": workers,
                "queue_high_water": dict(self._queue_high_water),
                "plan_cache": {
                    "hits": hits,
                    "misses": misses,
                    "hit_rate": (hits / lookups) if lookups else None,
                },
            }

    def control_snapshot(self) -> dict:
        """Windowed view for the control loop; resets the window.

        Unlike :meth:`stats` (run-cumulative, for reports and the
        ``stats`` endpoint), this returns only what happened since the
        *previous* ``control_snapshot`` call — stage percentiles, frame
        counts, batch sizes — plus the last-observed depth of each
        engine queue and the cumulative plan-cache hit rate.  Cumulative
        percentiles barely move once a run is minutes old; a controller
        steering on them would never see its own actions take effect.
        Reset-on-read makes the snapshot a per-tick measurement, which
        is what the :class:`~repro.serve.control.ServoController`
        integrates over.  One reader at a time: two pollers would halve
        each other's windows.
        """
        with self._lock:
            self._seq += 1
            batches = self._window_batch_sizes
            snapshot = {
                "seq": self._seq,
                "frames_in": self._window_frames_in,
                "frames_done": self._window_frames_done,
                "frames_dropped": self._window_frames_dropped,
                "batches": batches.count,
                "mean_batch_size": (
                    batches._sum / batches.count
                    if batches.count else None
                ),
                "stages": {
                    name: stats.snapshot()
                    for name, stats in self._window_stages.items()
                },
                "queue_depth": dict(self._queue_last),
            }
            self._window_stages = {
                name: LatencyStats() for name in self._window_stages
            }
            self._window_batch_sizes = LatencyStats()
            self._window_frames_in = 0
            self._window_frames_done = 0
            self._window_frames_dropped = 0
        cache_now = tof_plan_cache_stats()
        hits = cache_now["hits"] - self._cache_start["hits"]
        misses = cache_now["misses"] - self._cache_start["misses"]
        lookups = hits + misses
        snapshot["plan_cache_hit_rate"] = (
            hits / lookups if lookups else None
        )
        return snapshot

    def log_line(self) -> str:
        """One-line progress summary for the periodic serve log."""
        stats = self.stats()
        total = stats["stages"]["total"]
        throughput = stats["throughput_frames_per_s"]
        hit_rate = stats["plan_cache"]["hit_rate"]
        rate = (
            f"{throughput:.2f} frames/s" if throughput else "warming up"
        )
        hits = f"{hit_rate:.0%}" if hit_rate is not None else "n/a"
        line = (
            f"served {stats['frames_done']}/{stats['frames_in']} frames "
            f"({stats['frames_dropped']} dropped) | {rate} | "
            f"latency p50/p95/p99 "
            f"{total.get('p50_ms', 0.0):.1f}/"
            f"{total.get('p95_ms', 0.0):.1f}/"
            f"{total.get('p99_ms', 0.0):.1f} ms | "
            f"mean batch {stats['mean_batch_size'] or 0:.1f} | "
            f"plan-cache hit rate {hits}"
        )
        workers = stats["workers"]
        if workers["spawned"]:
            line += (
                f" | workers {workers['live']}/{workers['spawned']} live"
            )
        if "threads" in workers:
            line += f" | {workers['threads']} threads/worker"
        return line
