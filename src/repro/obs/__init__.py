"""repro.obs — observability for the serving stack.

One coherent subsystem for the three telemetry surfaces the serving
tiers previously improvised separately:

* **Metrics** (:mod:`repro.obs.metrics`): counter/gauge/histogram
  registry with Prometheus-text and JSON exporters, published into by
  :class:`~repro.serve.telemetry.ServeTelemetry`, the gateway, the
  control loop, and the kernel profiler; scraped via the gateway
  ``metrics`` verb or ``python -m repro.obs metrics``.
* **Tracing** (:mod:`repro.obs.tracing`): sampled per-frame span trees
  (ingress → batch wait → worker execute → respond); dumped via the
  gateway ``traces`` verb or ``python -m repro.obs traces``.
* **Events + flight recorder** (:mod:`repro.obs.events`,
  :mod:`repro.obs.recorder`): JSON-lines lifecycle log (session
  admit/reject, worker add/retire, drain, drop-oldest, engine-broken)
  feeding a bounded ring that the engine dumps to its log when a run
  breaks.

:class:`Observability` bundles the four pieces; engines and the
gateway accept one bundle through their ``observability=`` parameter
and default to a private zero-sample-rate bundle, so observability is
always wired but costs ~nothing until the operator turns a knob
(``--trace-sample-rate``, ``--profile-kernels``, ``--event-log``).

Everything except :mod:`repro.obs.profile` (which wraps
:class:`~repro.backend.ArrayBackend`) is dependency-free of the other
``repro`` packages — ``repro.obs`` is a leaf the serving tiers import,
never the reverse.  See ``docs/observability.md`` for the operator
guide.
"""

from __future__ import annotations

from repro.obs.events import EventLog, parse_event_lines
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
    validate_exposition,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.tracing import Span, Trace, Tracer, render_trace, span_tree

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "EventLog",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "Trace",
    "Tracer",
    "parse_event_lines",
    "parse_prometheus",
    "render_trace",
    "span_tree",
    "validate_exposition",
]


class Observability:
    """The bundle of observability sinks one engine/gateway shares.

    Attributes:
        metrics: the process-wide-for-this-engine metric registry.
        tracer: sampling trace factory (``sample_rate`` 0 disables).
        events: JSON-lines lifecycle logger.
        recorder: bounded flight-recorder ring behind both of the above.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        tracer: Tracer,
        events: EventLog,
        recorder: FlightRecorder,
    ) -> None:
        """Bundle pre-built components (use :meth:`create` normally)."""
        self.metrics = metrics
        self.tracer = tracer
        self.events = events
        self.recorder = recorder

    @classmethod
    def create(
        cls,
        sample_rate: float = 0.0,
        clock: object | None = None,
        event_stream: object | None = None,
        event_path: str | None = None,
        trace_capacity: int = 64,
        recorder_capacity: int = 512,
        seed: int | None = None,
    ) -> "Observability":
        """Build a fully wired bundle.

        ``clock`` is duck-typed (``.now()``); pass the engine's clock so
        spans, events and telemetry share a timebase (and fake clocks
        work in tests).  With no ``event_stream``/``event_path`` the
        event log records and counts but writes nowhere.
        """
        metrics = MetricsRegistry()
        recorder = FlightRecorder(capacity=recorder_capacity)
        tracer = Tracer(
            sample_rate=sample_rate,
            clock=clock,
            capacity=trace_capacity,
            metrics=metrics,
            recorder=recorder,
            seed=seed,
        )
        events = EventLog(
            stream=event_stream,  # type: ignore[arg-type]
            path=event_path,
            clock=clock,
            recorder=recorder,
            metrics=metrics,
        )
        return cls(metrics, tracer, events, recorder)
