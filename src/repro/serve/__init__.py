"""repro.serve — streaming beamforming with geometry-aware micro-batching.

The serving layer turns the offline :class:`~repro.api.base.Beamformer`
API into a live pipeline (DESIGN.md §3):

    from repro.api import create_beamformer
    from repro.serve import ReplaySource, ServeEngine

    engine = ServeEngine(create_beamformer("tiny_vbf"),
                         max_batch=4, max_latency_ms=25)
    report = engine.serve(ReplaySource(frames, fps=10.0))
    report.images        # complex IQ, submission order, parity with
                         # offline beamform()
    report.stats         # p50/p95/p99 latency, throughput, queue depth,
                         # plan-cache hit rate

Pieces (each importable on its own):

* sources    — :class:`FrameSource`, :class:`ReplaySource` (dataset
               replay), :class:`ProbeSource` (simulated live probe with
               scene drift, frame rate and jitter),
* scheduler  — :class:`MicroBatcher`: groups in-flight frames by
               acquisition geometry, flushes on ``max_batch`` or
               ``max_latency_ms``,
* engine     — :class:`ServeEngine`: worker-thread pool, bounded
               queues with explicit backpressure (block / drop-oldest),
               graceful shutdown,
* telemetry  — :class:`ServeTelemetry`: per-stage latency percentiles
               (bounded reservoirs), worker add/retire counters,
               throughput, queue depth, plan-cache hit rate,
* control    — :class:`ServoController`: telemetry-driven control loop
               that steers batching, admission and worker count toward
               an explicit :class:`SLO` (docs/autotuning.md),
* queues     — :class:`BoundedQueue` backpressure primitive,
* clock      — :class:`MonotonicClock` / :class:`FakeClock` (tests).

CLI: ``python -m repro.serve --beamformer tiny_vbf --source probe``
(add ``--workers N`` for more worker threads, ``--gateway PORT`` to
front the engine with the TCP gateway of :mod:`repro.gateway`).
Bench: ``benchmarks/bench_serve.py`` (single-frame loop vs micro-batched
engine; emits ``BENCH_serve.json``).
"""

from repro.serve.clock import Clock, FakeClock, MonotonicClock
from repro.serve.control import (
    SLO,
    ControlAction,
    ControlBounds,
    ServoController,
)
from repro.serve.engine import ServeEngine, ServeReport
from repro.serve.queues import (
    BACKPRESSURE_POLICIES,
    BoundedQueue,
    QueueClosed,
    QueueTimeout,
)
from repro.serve.scheduler import MicroBatch, MicroBatcher, PendingFrame
from repro.serve.sources import FrameSource, ProbeSource, ReplaySource
from repro.serve.telemetry import LatencyStats, ServeTelemetry

__all__ = [
    "BACKPRESSURE_POLICIES",
    "BoundedQueue",
    "Clock",
    "ControlAction",
    "ControlBounds",
    "FakeClock",
    "FrameSource",
    "LatencyStats",
    "MicroBatch",
    "MicroBatcher",
    "MonotonicClock",
    "PendingFrame",
    "ProbeSource",
    "QueueClosed",
    "QueueTimeout",
    "ReplaySource",
    "SLO",
    "ServeEngine",
    "ServeReport",
    "ServeTelemetry",
    "ServoController",
]
