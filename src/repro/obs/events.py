"""Structured JSON-lines event log for lifecycle events.

Serving-tier lifecycle — session admit/reject, worker add/retire,
drain begin/complete, drop-oldest evictions, engine-broken —
is emitted as one JSON object per line through :class:`EventLog`,
replacing scattered log strings with a machine-parseable stream.  Each
event also feeds the ``repro_events_total{event=...}`` counter and the
flight recorder ring, so a post-mortem dump carries the recent
lifecycle alongside recent traces.

The output stream is opened (or injected) at construction time, never
inside the emit path — gateway coroutines call :meth:`EventLog.emit`
directly, and opening files inside a coroutine would violate RA003.
The ``json.dumps`` here is diagnostics, not wire traffic: RA005's
exact-float rule governs the gateway protocol module only.
"""

from __future__ import annotations

import io
import json
import threading
import time
from typing import IO


class _SystemClock:
    """Fallback duck-typed clock over :func:`time.monotonic`."""

    def now(self) -> float:
        """Current monotonic time in seconds."""
        return time.monotonic()


class EventLog:
    """Thread-safe JSON-lines logger for lifecycle events.

    With neither ``stream`` nor ``path`` the log still counts and
    records (metrics + flight recorder) but writes nowhere — the
    default for library use, so engines get observability without
    spamming stderr.
    """

    def __init__(
        self,
        stream: IO[str] | None = None,
        path: str | None = None,
        clock: object | None = None,
        recorder: object | None = None,
        metrics: object | None = None,
    ) -> None:
        """Bind the sink(s); the file (if any) opens here, once."""
        if stream is not None and path is not None:
            raise ValueError("pass stream= or path=, not both")
        self._stream: IO[str] | None = stream
        self._owns_stream = False
        if path is not None:
            self._stream = open(path, "a", encoding="utf-8", buffering=1)
            self._owns_stream = True
        self._clock = clock if clock is not None else _SystemClock()
        self._recorder = recorder
        self._lock = threading.Lock()
        self._events_total = None
        if metrics is not None:
            self._events_total = metrics.counter(
                "repro_events_total",
                "Lifecycle events emitted, by event name.",
                labels=("event",),
            )

    def emit(self, event: str, **fields: object) -> dict:
        """Emit one event; returns the record that was written."""
        record: dict = {"ts": self._clock.now(), "event": event}
        record.update(fields)
        if self._events_total is not None:
            self._events_total.inc(event=event)
        if self._recorder is not None:
            self._recorder.record_event(record)
        if self._stream is not None:
            line = json.dumps(record, sort_keys=True)
            with self._lock:
                try:
                    self._stream.write(line + "\n")
                except ValueError:
                    # Stream already closed (interpreter teardown or an
                    # explicit close during drain) — the recorder and
                    # counters above still captured the event.
                    pass
        return record

    def close(self) -> None:
        """Close the underlying file if this log opened it."""
        if self._owns_stream and self._stream is not None:
            with self._lock:
                self._stream.close()
                self._stream = None
                self._owns_stream = False


def parse_event_lines(text: str) -> list[dict]:
    """Parse a JSON-lines event dump back into records (test helper)."""
    records = []
    for line in io.StringIO(text):
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records
