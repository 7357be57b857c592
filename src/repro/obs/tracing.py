"""Per-frame tracing: spans, traces and sampling.

One served frame yields one :class:`Trace` — an ordered tree of
:class:`Span` records covering ingress (gateway or source pump),
batching wait, worker execute, and response.

Sampling is decided once at ingress (``Tracer.start_trace`` returns
``None`` for unsampled frames) so the full pipeline pays only a
``None`` check per frame when tracing is off.

Clocks are duck-typed (``.now() -> float``); pass a
:class:`repro.serve.clock.FakeClock` in tests for deterministic
timestamps.  This module imports nothing from :mod:`repro.serve`.
"""

from __future__ import annotations

import collections
import os
import random
import threading
import time
from typing import Iterator


class _SystemClock:
    """Fallback duck-typed clock over :func:`time.monotonic`."""

    def now(self) -> float:
        """Current monotonic time in seconds."""
        return time.monotonic()


class Span:
    """One timed operation inside a trace.

    Spans are created through :class:`Trace` (``with trace.span(...)``
    for live scopes, :meth:`Trace.add_span` for retroactive records
    with both endpoints known) — never constructed directly in serving
    code; analysis rule RA008 enforces that discipline so the flight
    recorder cannot accumulate open spans.
    """

    __slots__ = (
        "name", "span_id", "parent_id", "start", "end", "process", "attrs",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int,
        start: float,
        end: float | None = None,
        attrs: dict | None = None,
    ) -> None:
        """Record the span's identity and start; ``end`` may come later."""
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = end
        self.process = os.getpid()
        self.attrs = attrs or {}

    @property
    def duration(self) -> float | None:
        """Seconds between start and end, or ``None`` while open."""
        if self.end is None:
            return None
        return self.end - self.start

    def as_dict(self) -> dict:
        """JSON-safe view of the span."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "process": self.process,
            "attrs": dict(self.attrs),
        }


class _SpanScope:
    """Context manager closing a live span on exit (success or error)."""

    __slots__ = ("_trace", "_span")

    def __init__(self, trace: "Trace", span: Span) -> None:
        self._trace = trace
        self._span = span

    @property
    def span_id(self) -> int:
        """The underlying span's id (for parenting children)."""
        return self._span.span_id

    def set(self, **attrs: object) -> None:
        """Attach attributes to the live span."""
        self._span.attrs.update(attrs)

    def __enter__(self) -> "_SpanScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._trace._close(self._span)


class Trace:
    """The span tree of one frame's journey through the pipeline.

    A trace owns a root span covering the whole frame lifetime and a
    flat list of child spans (the tree is reconstructed from
    ``parent_id`` links).  Span ids are a per-trace counter — unique
    within the trace, which is all parenting needs.  The component
    that *created* the trace finishes it (``owner`` records which tier
    that was, so the engine does not finish gateway-owned traces).
    """

    def __init__(
        self,
        trace_id: int,
        name: str,
        start: float,
        tracer: "Tracer | None" = None,
        owner: str = "",
        **attrs: object,
    ) -> None:
        """Open the trace with a root span starting at ``start``."""
        self.trace_id = trace_id
        self.owner = owner
        self._tracer = tracer
        self._lock = threading.Lock()
        self._next_span_id = 1
        self._spans: list[Span] = []
        self._finished = False
        self.root = Span(name, 0, -1, start, attrs=dict(attrs))

    def _clock_now(self) -> float:
        if self._tracer is not None:
            return self._tracer.clock.now()
        return time.monotonic()

    def _new_id(self) -> int:
        with self._lock:
            span_id = self._next_span_id
            self._next_span_id += 1
            return span_id

    def _close(self, span: Span) -> None:
        if span.end is None:
            span.end = self._clock_now()
        with self._lock:
            self._spans.append(span)

    def span(self, name: str, parent: int = 0, **attrs: object) -> _SpanScope:
        """Open a live child span; use as ``with trace.span("x"): ...``."""
        live = Span(
            name, self._new_id(), parent, self._clock_now(), attrs=dict(attrs)
        )
        return _SpanScope(self, live)

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        parent: int = 0,
        **attrs: object,
    ) -> int:
        """Record a completed span retroactively; returns its id.

        This is the workhorse for pipeline stages whose endpoints are
        already measured (queue wait, execute) — both timestamps are
        known, so nothing is ever left open.
        """
        span = Span(
            name, self._new_id(), parent, start, end=end, attrs=dict(attrs)
        )
        with self._lock:
            self._spans.append(span)
        return span.span_id

    def set(self, **attrs: object) -> None:
        """Attach attributes to the root span."""
        self.root.attrs.update(attrs)

    def finish(self, end: float | None = None, **attrs: object) -> None:
        """Close the root span and hand the trace to its tracer.

        Idempotent: an orphaned delivery may race the owner to finish;
        only the first call publishes.
        """
        with self._lock:
            if self._finished:
                return
            self._finished = True
        self.root.attrs.update(attrs)
        self.root.end = end if end is not None else self._clock_now()
        if self._tracer is not None:
            self._tracer._completed(self)

    @property
    def finished(self) -> bool:
        """Whether :meth:`finish` has run."""
        return self._finished

    def spans(self) -> list[Span]:
        """All spans, root first, children in completion order."""
        with self._lock:
            return [self.root, *self._spans]

    def as_dict(self) -> dict:
        """JSON-safe view: trace id, owner, and the full span list."""
        return {
            "trace_id": self.trace_id,
            "owner": self.owner,
            "spans": [span.as_dict() for span in self.spans()],
        }


class Tracer:
    """Sampling trace factory + bounded store of completed traces.

    ``sample_rate`` is the probability a frame is traced: ``0.0`` never
    allocates anything (the hot path sees a single ``None``), ``1.0``
    traces every frame.  Completed traces land in a bounded deque
    (newest kept) served by the gateway ``traces`` verb, and optionally
    in a :class:`~repro.obs.recorder.FlightRecorder` for post-mortems.
    """

    def __init__(
        self,
        sample_rate: float = 0.0,
        clock: object | None = None,
        capacity: int = 64,
        metrics: object | None = None,
        recorder: object | None = None,
        seed: int | None = None,
    ) -> None:
        """Configure sampling, clock, and completed-trace retention."""
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.sample_rate = sample_rate
        self.clock = clock if clock is not None else _SystemClock()
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._done: collections.deque[Trace] = collections.deque(
            maxlen=capacity
        )
        self._next_trace_id = self._rng.getrandbits(32) << 16 | 1
        self._recorder = recorder
        self._traces_total = None
        if metrics is not None:
            self._traces_total = metrics.counter(
                "repro_traces_total",
                "Traces started/completed by the tracer.",
                labels=("event",),
            )

    def start_trace(
        self,
        name: str,
        start: float | None = None,
        owner: str = "",
        **attrs: object,
    ) -> Trace | None:
        """Open a new sampled trace, or ``None`` if this frame is not sampled."""
        if self.sample_rate <= 0.0:
            return None
        if self.sample_rate < 1.0 and self._rng.random() >= self.sample_rate:
            return None
        with self._lock:
            trace_id = self._next_trace_id
            self._next_trace_id += 1
        if start is None:
            start = self.clock.now()
        if self._traces_total is not None:
            self._traces_total.inc(event="started")
        return Trace(trace_id, name, start, tracer=self, owner=owner, **attrs)

    def _completed(self, trace: Trace) -> None:
        with self._lock:
            self._done.append(trace)
        if self._traces_total is not None:
            self._traces_total.inc(event="completed")
        if self._recorder is not None:
            self._recorder.record_trace(trace.as_dict())

    def recent(self, n: int = 16) -> list[dict]:
        """The ``n`` most recently completed traces, newest last."""
        with self._lock:
            traces = list(self._done)[-n:]
        return [trace.as_dict() for trace in traces]

    def drain(self) -> Iterator[dict]:
        """Pop and yield every stored completed trace (oldest first)."""
        while True:
            with self._lock:
                if not self._done:
                    return
                trace = self._done.popleft()
            yield trace.as_dict()


def span_tree(trace_dict: dict) -> dict:
    """Rebuild the nested tree from a :meth:`Trace.as_dict` payload.

    Returns the root span dict with a ``children`` list added to every
    node (children ordered by start time).  Used by the obs CLI's trace
    dump and by the e2e completeness tests.
    """
    spans = [dict(span) for span in trace_dict["spans"]]
    by_id = {span["span_id"]: span for span in spans}
    for span in spans:
        span["children"] = []
    root = by_id[0]
    for span in spans:
        if span["span_id"] == 0:
            continue
        parent = by_id.get(span["parent_id"], root)
        parent["children"].append(span)
    for span in spans:
        span["children"].sort(key=lambda child: child["start"])
    return root


def render_trace(trace_dict: dict) -> str:
    """Human-readable indented rendering of one trace (for the CLI)."""
    root = span_tree(trace_dict)
    lines = [
        f"trace {trace_dict['trace_id']:#x} owner={trace_dict['owner'] or '-'}"
    ]

    def walk(span: dict, depth: int) -> None:
        duration = span.get("duration")
        took = f"{duration * 1e3:.3f}ms" if duration is not None else "open"
        attrs = "".join(
            f" {key}={value}" for key, value in sorted(span["attrs"].items())
        )
        lines.append(
            f"{'  ' * depth}- {span['name']} [{took}]"
            f" pid={span['process']}{attrs}"
        )
        for child in span["children"]:
            walk(child, depth + 1)

    walk(root, 1)
    return "\n".join(lines)
