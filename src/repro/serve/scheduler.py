"""Geometry-aware micro-batching: the serving scheduler's core.

:class:`MicroBatcher` holds in-flight frames grouped by acquisition
geometry (:func:`repro.api.base.dataset_plan_key`, the same identity the
ToF-plan cache keys on) and decides *when* a group becomes a dispatchable
:class:`MicroBatch`:

* **flush on max_batch** — a group that reaches ``max_batch`` frames is
  emitted immediately (throughput: a full stacked forward),
* **flush on deadline** — a group whose oldest frame has waited
  ``max_latency_s`` is emitted regardless of size (latency: no frame
  waits for company forever),
* **flush on demand** — :meth:`flush` drains everything (shutdown).

Grouping by geometry is what makes batches *useful*: every frame in a
batch resolves to the same cached :class:`~repro.beamform.tof.TofPlan`,
and learned adapters can stack the whole batch through one model
forward (`Beamformer.beamform_batch`).

The class is deliberately single-threaded — a pure data structure over
an injected :class:`~repro.serve.clock.Clock` — so the flush rules are
testable with a fake clock and no sleeps.  Thread ownership lives in
:class:`repro.serve.engine.ServeEngine`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.api.base import dataset_plan_key
from repro.serve.clock import Clock, MonotonicClock


@dataclass(frozen=True)
class PendingFrame:
    """One submitted frame awaiting batch dispatch.

    ``trace`` is the frame's :class:`repro.obs.Trace` when the frame
    was sampled for tracing (``None`` otherwise — the common case);
    it rides the frame through the scheduler so downstream stages can
    attach their spans.  Equality/hashing stay identity-free of it:
    the dataclass compares by field values and traces are per-frame
    objects, which is fine — frames are never compared in the
    pipeline.
    """

    seq: int
    dataset: Any
    submitted_at: float
    trace: Any = None


@dataclass(frozen=True)
class MicroBatch:
    """A dispatchable group of same-geometry frames.

    Attributes:
        frames: the member frames, in submission order.
        geometry: shared ``dataset_plan_key`` of every member.
        formed_at: scheduler time at which the batch was emitted.
        reason: what triggered the flush — ``"max_batch"``,
            ``"deadline"`` or ``"flush"``.
    """

    frames: tuple[PendingFrame, ...]
    geometry: tuple = field(repr=False)
    formed_at: float = 0.0
    reason: str = "flush"

    def __len__(self) -> int:
        return len(self.frames)


class MicroBatcher:
    """Accumulate frames into geometry-keyed micro-batches.

    Args:
        max_batch: emit a group as soon as it holds this many frames.
        max_latency_s: emit a group once its *oldest* frame has waited
            this long, full or not.
        clock: time source (fake in tests).

    Both limits are runtime-mutable via :meth:`set_limits` — the
    adaptive-batching controller tightens the deadline or grows the
    batch cap mid-stream.  The limits are only ever *read* at flush
    decisions (``ready``/``flush``/``next_deadline``), so a limit
    change can never drop or double-emit a pending frame: pending
    frames simply flush under the new rules on the next decision.
    """

    def __init__(
        self,
        max_batch: int = 4,
        max_latency_s: float = 0.025,
        clock: Clock | None = None,
    ) -> None:
        self._validate_limits(max_batch, max_latency_s)
        self.max_batch = max_batch
        self.max_latency_s = max_latency_s
        self.clock = clock or MonotonicClock()
        # Geometry key -> frames in submission order.  Ordered so that
        # deadline scanning visits longest-waiting groups first.
        self._groups: "OrderedDict[tuple, list[PendingFrame]]" = (
            OrderedDict()
        )
        self._seq = 0

    @staticmethod
    def _validate_limits(max_batch: int, max_latency_s: float) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_latency_s < 0:
            raise ValueError(
                f"max_latency_s must be >= 0, got {max_latency_s}"
            )

    def set_limits(
        self,
        max_batch: int | None = None,
        max_latency_s: float | None = None,
    ) -> None:
        """Change the flush limits of a live scheduler.

        Validated with the constructor's rules, then applied as two
        plain attribute assignments — the batcher thread re-reads the
        limits at every flush decision, so the change takes effect on
        the next ``ready``/``next_deadline`` call.  A deadline *cut*
        can make already-pending groups instantly overdue (they flush
        on the next ``ready``), and a ``max_batch`` cut below a pending
        group's size chunk-emits that group — in either case every
        pending frame is emitted exactly once.
        """
        new_batch = self.max_batch if max_batch is None else max_batch
        new_latency = (
            self.max_latency_s if max_latency_s is None else max_latency_s
        )
        self._validate_limits(new_batch, new_latency)
        self.max_batch = new_batch
        self.max_latency_s = new_latency

    @property
    def pending(self) -> int:
        """Frames currently held, across all geometry groups."""
        return sum(len(group) for group in self._groups.values())

    @property
    def pending_groups(self) -> int:
        """Distinct geometries currently held."""
        return len(self._groups)

    def submit(self, dataset, submitted_at: float | None = None
               ) -> PendingFrame:
        """Add one frame; returns its :class:`PendingFrame` record."""
        frame = PendingFrame(
            seq=self._seq,
            dataset=dataset,
            submitted_at=(
                self.clock.now() if submitted_at is None else submitted_at
            ),
        )
        self._seq += 1
        self.add(frame)
        return frame

    def add(self, frame: PendingFrame) -> None:
        """Add a frame whose ``seq``/timestamp the caller already owns
        (the engine assigns sequence numbers at ingest so frames dropped
        by backpressure are still accounted for)."""
        key = dataset_plan_key(frame.dataset)
        self._groups.setdefault(key, []).append(frame)

    def _emit(
        self, key: tuple, count: int, now: float, reason: str
    ) -> MicroBatch:
        group = self._groups[key]
        members, rest = group[:count], group[count:]
        if rest:
            self._groups[key] = rest
        else:
            del self._groups[key]
        return MicroBatch(
            frames=tuple(members),
            geometry=key,
            formed_at=now,
            reason=reason,
        )

    def ready(self, now: float | None = None) -> list[MicroBatch]:
        """Batches due at ``now``: full groups first, then expired ones.

        Expired (deadline) batches are emitted oldest-first so the frame
        that has waited longest is always dispatched first.
        """
        now = self.clock.now() if now is None else now
        batches: list[MicroBatch] = []
        for key in list(self._groups):
            while (
                key in self._groups
                and len(self._groups[key]) >= self.max_batch
            ):
                batches.append(
                    self._emit(key, self.max_batch, now, "max_batch")
                )
        expired = sorted(
            (
                (group[0].submitted_at, key)
                for key, group in self._groups.items()
                if now - group[0].submitted_at >= self.max_latency_s
            ),
            # Sort by timestamp only: geometry keys contain probe
            # objects that do not define an ordering, and timestamp
            # ties are routine under a fake clock.
            key=lambda item: item[0],
        )
        for _, key in expired:
            batches.append(
                self._emit(key, len(self._groups[key]), now, "deadline")
            )
        return batches

    def flush(self, now: float | None = None) -> list[MicroBatch]:
        """Drain every pending frame (shutdown), oldest group first."""
        now = self.clock.now() if now is None else now
        batches = []
        for key in list(self._groups):
            while key in self._groups:
                count = min(self.max_batch, len(self._groups[key]))
                batches.append(self._emit(key, count, now, "flush"))
        return batches

    def next_deadline(self) -> float | None:
        """Earliest time a pending group must flush (None when empty)."""
        if not self._groups:
            return None
        oldest = min(
            group[0].submitted_at for group in self._groups.values()
        )
        return oldest + self.max_latency_s
