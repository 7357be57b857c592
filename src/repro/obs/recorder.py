"""Flight recorder: a bounded ring of recent events and traces.

Post-mortem context for crashes: the serving tiers continuously feed
lifecycle events (via :class:`~repro.obs.events.EventLog`) and
completed traces (via :class:`~repro.obs.tracing.Tracer`) into a
bounded deque; when a run breaks (a worker raises), the
engine dumps the ring — the last N things that happened, in order — to the
process log.  Bounded by construction (RA002's spirit), so an
always-on recorder costs a fixed amount of memory.
"""

from __future__ import annotations

import collections
import json
import threading


class FlightRecorder:
    """Bounded in-memory ring of recent observability entries."""

    def __init__(self, capacity: int = 512) -> None:
        """Size the ring; oldest entries are evicted beyond ``capacity``."""
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: collections.deque[tuple[str, dict]] = collections.deque(
            maxlen=capacity
        )

    def record_event(self, record: dict) -> None:
        """Append one lifecycle-event record."""
        with self._lock:
            self._ring.append(("event", record))

    def record_trace(self, trace_dict: dict) -> None:
        """Append one completed trace (its ``as_dict`` form)."""
        with self._lock:
            self._ring.append(("trace", trace_dict))

    def entries(self) -> list[tuple[str, dict]]:
        """Snapshot of the ring, oldest first: ``[(kind, record), ...]``."""
        with self._lock:
            return list(self._ring)

    def __len__(self) -> int:
        """Number of entries currently held."""
        with self._lock:
            return len(self._ring)

    def dump(self) -> str:
        """The ring as JSON lines (``{"kind": ..., **record}`` per line).

        This is the post-mortem format documented in
        ``docs/observability.md``; the engine logs it when a run
        breaks.
        """
        lines = []
        for kind, record in self.entries():
            payload = {"kind": kind}
            payload.update(record)
            lines.append(json.dumps(payload, sort_keys=True))
        return "\n".join(lines)
