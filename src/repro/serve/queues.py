"""Bounded FIFO queue with an explicit backpressure policy.

The serving pipeline is a chain of stages connected by queues; what
happens when a stage falls behind is a *policy decision*, not an
accident.  :class:`BoundedQueue` makes the two supported answers
explicit:

* ``"block"`` — the producer waits for space.  Nothing is lost; ingest
  slows to the pipeline's pace (lossless replay, offline batch jobs).
* ``"drop_oldest"`` — the oldest queued item is evicted to make room and
  returned to the producer for accounting.  Latency stays bounded at the
  cost of frames (live probe streams, where a stale frame is worthless).

``close()`` performs the shutdown handshake: producers can no longer
put, consumers drain what remains and then see :class:`QueueClosed`.

The serving engine's workers consume with :meth:`BoundedQueue.get_batch`
— the oldest item plus queued items with the same key, in one step — and
:meth:`BoundedQueue.retire_consumer` stops one consumer without a
sentinel item.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable

BACKPRESSURE_POLICIES = ("block", "drop_oldest")


class QueueClosed(Exception):
    """Raised on ``put`` after close, or on ``get`` once drained."""


class QueueTimeout(Exception):
    """Raised when a timed ``get``/``put`` expires without progress."""


class ConsumerRetired(Exception):
    """Raised on ``get_batch`` to the consumer that takes a retire."""


class BoundedQueue:
    """Thread-safe bounded FIFO (see module docstring for the policies).

    Attributes:
        capacity: maximum number of queued items.
        policy: ``"block"`` or ``"drop_oldest"``.
    """

    def __init__(self, capacity: int, policy: str = "block") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if policy not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"policy must be one of {BACKPRESSURE_POLICIES}, "
                f"got {policy!r}"
            )
        self.capacity = capacity
        self.policy = policy
        self._items: deque[Any] = deque()  # repro: noqa[RA002] -- BoundedQueue IS the bound: put() enforces self.capacity under _lock
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False
        self._retiring = 0
        self._dropped = 0
        self._high_water = 0

    def put(self, item: Any, timeout: float | None = None) -> Any | None:
        """Enqueue ``item``; returns the evicted item under
        ``drop_oldest`` (``None`` otherwise).

        Raises:
            QueueClosed: the queue was closed.
            QueueTimeout: ``block`` policy and no space within
                ``timeout`` seconds.
        """
        with self._lock:
            if self._closed:
                raise QueueClosed
            evicted = None
            if len(self._items) >= self.capacity:
                if self.policy == "drop_oldest":
                    evicted = self._items.popleft()
                    self._dropped += 1
                else:
                    if not self._not_full.wait_for(
                        lambda: self._closed
                        or len(self._items) < self.capacity,
                        timeout=timeout,
                    ):
                        raise QueueTimeout
                    if self._closed:
                        raise QueueClosed
            self._items.append(item)
            self._high_water = max(self._high_water, len(self._items))
            self._not_empty.notify()
            return evicted

    def get(self, timeout: float | None = None) -> Any:
        """Dequeue the oldest item.

        Raises:
            QueueClosed: the queue is closed *and* fully drained.
            QueueTimeout: nothing arrived within ``timeout`` seconds.
        """
        with self._lock:
            if not self._not_empty.wait_for(
                lambda: self._closed or self._items, timeout=timeout
            ):
                raise QueueTimeout
            if not self._items:
                raise QueueClosed
            item = self._items.popleft()
            self._not_full.notify()
            return item

    def get_batch(self, limit: int, key: Callable[[Any], Any]) -> list:
        """Dequeue the oldest item plus up to ``limit - 1`` later items
        whose ``key`` equals its key, in queue order, in one step.

        Items with other keys keep their places.  Blocks until there is
        an item, a pending retire or a close.

        Raises:
            ConsumerRetired: a :meth:`retire_consumer` is pending; this
                caller takes it, ahead of any queued item.
            QueueClosed: the queue is closed *and* fully drained.
        """
        with self._lock:
            self._not_empty.wait_for(
                lambda: self._retiring or self._closed or self._items
            )
            if self._retiring:
                self._retiring -= 1
                raise ConsumerRetired
            if not self._items:
                raise QueueClosed
            batch = [self._items.popleft()]
            wanted = key(batch[0])
            index = 0
            while len(batch) < limit and index < len(self._items):
                if key(self._items[index]) == wanted:
                    batch.append(self._items[index])
                    del self._items[index]
                else:
                    index += 1
            self._not_full.notify(len(batch))
            return batch

    def retire_consumer(self) -> None:
        """Make one consumer's ``get_batch`` raise :class:`ConsumerRetired`.

        A blocked consumer wakes at once; otherwise the next caller
        takes it.  Items stay queued for the other consumers.

        Raises:
            QueueClosed: the queue was closed (every consumer ends
                anyway once it drains).
        """
        with self._lock:
            if self._closed:
                raise QueueClosed
            self._retiring += 1
            self._not_empty.notify()

    def close(self) -> None:
        """Refuse further puts; consumers drain the remainder."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        with self._lock:
            return self._closed

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def dropped(self) -> int:
        """Items evicted so far under ``drop_oldest``."""
        with self._lock:
            return self._dropped

    @property
    def high_water(self) -> int:
        """Deepest the queue has been since construction."""
        with self._lock:
            return self._high_water

    def stats(self) -> dict:
        """One consistent snapshot of the queue's gauges.

        ``depth``/``dropped``/``high_water`` read individually each take
        the lock, so a telemetry caller sampling all three could see
        them from different instants; engines record this dict instead.
        """
        with self._lock:
            return {
                "depth": len(self._items),
                "capacity": self.capacity,
                "dropped": self._dropped,
                "high_water": self._high_water,
                "closed": self._closed,
            }
