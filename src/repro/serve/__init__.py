"""repro.serve — streaming beamforming with geometry-aware micro-batching.

The serving layer turns the offline :class:`~repro.api.base.Beamformer`
API into a live pipeline (DESIGN.md §3):

    from repro.api import create_beamformer
    from repro.serve import ReplaySource, ServeEngine

    engine = ServeEngine(create_beamformer("tiny_vbf"), max_batch=4)
    report = engine.serve(ReplaySource(frames, fps=10.0))
    report.images        # complex IQ, submission order, parity with
                         # offline beamform()
    report.stats         # p50/p95/p99 latency, throughput, queue depth,
                         # plan-cache hit rate

Pieces (each importable on its own):

* sources    — :class:`FrameSource`, :class:`ReplaySource` (dataset
               replay), :class:`ProbeSource` (simulated live probe with
               scene drift, frame rate and jitter),
* engine     — :class:`ServeEngine`: a worker-thread pool that takes
               frames straight from one bounded ingest queue with
               explicit backpressure (block / drop-oldest) — an idle
               worker gets a frame at once, a busy pool batches up to
               ``max_batch`` queued frames of one acquisition geometry
               — and graceful shutdown,
* telemetry  — :class:`ServeTelemetry`: per-stage latency percentiles
               (bounded reservoirs), worker add/retire counters,
               throughput, queue depth, plan-cache hit rate,
* control    — :class:`ServoController`: telemetry-driven control loop
               that steers batching, admission and worker count toward
               an explicit :class:`SLO` (docs/autotuning.md),
* queues     — :class:`BoundedQueue` backpressure primitive and the
               workers' same-key batch take,
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
from repro.serve.engine import PendingFrame, ServeEngine, ServeReport
from repro.serve.queues import (
    BACKPRESSURE_POLICIES,
    BoundedQueue,
    ConsumerRetired,
    QueueClosed,
    QueueTimeout,
)
from repro.serve.sources import FrameSource, ProbeSource, ReplaySource
from repro.serve.telemetry import LatencyStats, ServeTelemetry

__all__ = [
    "BACKPRESSURE_POLICIES",
    "BoundedQueue",
    "Clock",
    "ConsumerRetired",
    "ControlAction",
    "ControlBounds",
    "FakeClock",
    "FrameSource",
    "LatencyStats",
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
