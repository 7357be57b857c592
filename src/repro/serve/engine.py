"""The streaming beamforming engine: source → ingest queue → workers → sink.

:class:`ServeEngine` turns any :class:`~repro.api.base.Beamformer` into
a live pipeline:

::

    FrameSource ──▶ ingest queue ──▶ worker pool ──▶ sink
     (caller thread)  (bounded,        (N threads)     (callback)
                      backpressure)

* The **caller thread** iterates the source, keys each frame by its
  acquisition geometry (:func:`repro.api.base.dataset_plan_key`) and
  enqueues it.  The ingest queue's backpressure policy decides what
  happens when the pipeline falls behind: ``"block"`` (lossless) or
  ``"drop_oldest"`` (bounded latency, dropped frames are reported by
  sequence number).  ``queue_capacity`` bounds every waiting frame.
* **Workers take frames straight from the ingest queue.**  A free
  worker takes, in one step under the queue's lock, the oldest frame
  plus up to ``max_batch − 1`` queued frames of the same geometry
  (:meth:`~repro.serve.queues.BoundedQueue.get_batch`).  An idle worker
  therefore gets a frame the moment it arrives, and a busy pool forms
  same-geometry batches from what queued up meanwhile.
* **Workers** execute ``beamformer.beamform_batch`` on each micro-batch
  (same-geometry frames: one cached ToF plan, one stacked model forward)
  and deliver images to the sink callback and the result table.
* **Threads.**  While the engine serves, its workers count toward the
  process thread budget of :mod:`repro.runtime`, which sizes OpenBLAS
  and cnative to the workers' share of the usable cores.
* Pipelining is the point: while a worker beamforms, the caller thread
  is already waiting on (or simulating) the *next* frames, so
  acquisition time and compute overlap instead of adding up.

Shutdown is graceful by construction: when the source ends, the ingest
queue closes, workers drain every queued frame and exit once it is
empty — no frame is lost (asserted by the tier-1 serve tests).

Failure is contained to the run, not the process: an exception in a
worker marks the engine :attr:`~ServeEngine.broken`, dumps the flight
recorder to the log and is re-raised by ``serve``.  Workers share the
process, so a crash below Python (a segfault in a compiled kernel) ends
the whole process; restarting it is the process supervisor's job
(DESIGN.md §5).

Output parity: frames are normalized per frame and batch forwards are
batch-invariant (see ``repro.nn.layers.dense``), so a served image is
bit-for-bit identical to ``beamformer.beamform(frame)`` offline.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from repro import runtime
from repro.api.base import Beamformer, dataset_plan_key
from repro.obs import Observability
from repro.serve.clock import Clock, MonotonicClock
from repro.serve.queues import (
    BACKPRESSURE_POLICIES,
    BoundedQueue,
    ConsumerRetired,
    QueueClosed,
)
from repro.serve.telemetry import ServeTelemetry

logger = logging.getLogger("repro.serve")

#: Sink callback signature: ``(seq, dataset, iq_image) -> None``.
Sink = Callable[[int, object, np.ndarray], None]


@dataclass(frozen=True)
class PendingFrame:
    """One submitted frame waiting in the ingest queue.

    ``key`` is the frame's acquisition geometry
    (:func:`repro.api.base.dataset_plan_key`), computed once at ingest;
    workers batch frames whose keys are equal.  ``trace`` is the
    frame's :class:`repro.obs.Trace` when the frame was sampled for
    tracing (``None`` otherwise — the common case); it rides the frame
    to the worker, which attaches its spans.
    """

    seq: int
    dataset: Any
    submitted_at: float
    key: tuple = field(repr=False)
    trace: Any = None


def _frame_key(frame: PendingFrame) -> tuple:
    return frame.key


def _finish_engine_traces(
    frames: Iterable[PendingFrame], status: str
) -> None:
    """Close the engine-owned traces of ``frames`` with ``status``.

    The gateway finishes its own traces at response delivery, so
    gateway-owned ones are left alone.  Idempotent per trace.
    """
    for frame in frames:
        if frame.trace is not None and frame.trace.owner == "engine":
            frame.trace.finish(status=status)


def pump_source(
    source: Iterable,
    ingest: BoundedQueue,
    telemetry: ServeTelemetry,
    dropped: list[int],
    tracer=None,
    events=None,
) -> int:
    """Feed ``source`` into the ingest queue; the producer half of serve.

    Keys each frame by geometry, assigns sequence numbers and applies
    the queue's backpressure policy (recording evictions in ``dropped``
    and telemetry).  Returns the number of frames submitted.  A frame
    that cannot be keyed (no probe/grid/...) raises here, on the
    caller's thread.  The caller owns ``ingest.close`` — typically in a
    ``finally`` so shutdown happens on source errors too.

    Tracing: a dataset that already carries a ``trace`` attribute (the
    gateway attaches one at ingress) keeps it; otherwise ``tracer``
    (when given) decides per frame whether to sample a fresh
    engine-owned trace.  Evicted frames' traces finish immediately
    with ``status="dropped"`` and the eviction lands in ``events``.
    """
    seq = 0
    for dataset in source:
        submitted_at = telemetry.frame_submitted()
        key = dataset_plan_key(dataset)
        trace = getattr(dataset, "trace", None)
        if trace is None and tracer is not None:
            trace = tracer.start_trace(
                "frame", start=submitted_at, owner="engine", seq=seq
            )
        evicted = ingest.put(
            PendingFrame(
                seq=seq, dataset=dataset, submitted_at=submitted_at,
                key=key, trace=trace,
            )
        )
        seq += 1
        if evicted is not None:
            dropped.append(evicted.seq)
            telemetry.frame_dropped()
            if events is not None:
                events.emit("drop_oldest", seq=evicted.seq)
            if evicted.trace is not None:
                evicted.trace.finish(status="dropped")
        telemetry.observe_queue_depth("ingest", len(ingest))
    return seq


@dataclass
class ServeReport:
    """Outcome of one :meth:`ServeEngine.serve` run.

    Attributes:
        images: per-frame complex IQ images indexed by submission
            sequence; ``None`` where the frame was dropped by
            backpressure.
        dropped: sequence numbers evicted under ``drop_oldest``.
        stats: the run's telemetry dict
            (:meth:`~repro.serve.telemetry.ServeTelemetry.stats`).
    """

    images: list[np.ndarray | None]
    dropped: list[int]
    stats: dict

    @property
    def completed(self) -> int:
        """Number of frames that produced an image this run."""
        return sum(image is not None for image in self.images)


class ServeEngine:
    """Micro-batching streaming executor over one beamformer.

    Args:
        beamformer: any :class:`~repro.api.base.Beamformer`.
        max_batch: cap on the frames one worker takes as one batch.
        queue_capacity: ingest queue bound — the bound on every frame
            waiting for a worker (backpressure kicks in here).
        backpressure: ``"block"`` or ``"drop_oldest"``.
        n_workers: beamforming worker threads.  NumPy releases the GIL
            inside its kernels, so workers overlap on multicore hosts;
            on a single core they still overlap compute with ingest
            waits.
        clock: time source.  The engine runs real threads, so only a
            monotonic clock makes sense here; the injectable parameter
            exists for telemetry determinism in tests.
        log_every_s: period of the telemetry log line (0 disables).
        keep_images: retain every result for :attr:`ServeReport.images`
            (the default).  Long-running push consumers — the network
            gateway — set this ``False`` so an unbounded run holds no
            per-frame state: images are delivered to the sink only and
            the report's ``images`` entries stay ``None``.
        observability: optional :class:`repro.obs.Observability` bundle
            (metrics registry, tracer, event log, flight recorder).
            Default: a private bundle on the engine clock with tracing
            disabled — always wired, near-zero cost.  Share one bundle
            between the engine and a gateway so both publish into the
            same exported registry.
    """

    def __init__(
        self,
        beamformer: Beamformer,
        max_batch: int = 4,
        queue_capacity: int = 64,
        backpressure: str = "block",
        n_workers: int = 1,
        clock: Clock | None = None,
        log_every_s: float = 10.0,
        keep_images: bool = True,
        observability: Observability | None = None,
    ) -> None:
        if backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {backpressure!r}"
            )
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.beamformer = beamformer
        self.set_batching(max_batch)
        self.queue_capacity = queue_capacity
        self.backpressure = backpressure
        self.n_workers = n_workers
        self.clock = clock or MonotonicClock()
        self.log_every_s = log_every_s
        self.keep_images = keep_images
        self.obs = observability or Observability.create(clock=self.clock)
        self._run_errors: list[BaseException] = []
        # Live worker-pool state: the run context exists only while
        # serve() runs; the registry accumulates every thread started
        # for the current run (including retired ones — join()ing a
        # finished thread is free).  _budgeted counts the run's workers
        # in the process thread budget (repro.runtime): retired workers
        # leave it as they exit, serve() removes the rest.  Guarded by
        # _workers_lock, which orders add/retire against shutdown.
        self._run_ctx: dict | None = None
        self._worker_threads: list[threading.Thread] = []
        self._workers_lock = threading.Lock()
        self._live_workers = 0
        self._worker_seq = 0
        self._budgeted = 0

    @property
    def broken(self) -> bool:
        """True once a worker of the current run has failed.

        The engine's error contract defers the raise to the end of the
        run (failed workers keep draining so nothing deadlocks), but a
        push-style caller with a potentially unbounded source — the
        gateway — needs to *see* the failure to stop feeding; it polls
        this.  The flag resets on the next ``serve`` call: a failed run
        does not poison the engine.
        """
        return bool(self._run_errors)

    # -- runtime control -------------------------------------------------

    def set_batching(self, max_batch: int) -> None:
        """Change the batch cap, live when a run is active.

        Workers read ``max_batch`` at every take, so the new cap
        applies to the next batch a worker takes; frames already taken
        run as they are.
        """
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = max_batch

    @property
    def live_workers(self) -> int:
        """Worker threads currently executing batches."""
        with self._workers_lock:
            return self._live_workers

    def add_worker(self) -> bool:
        """Start one more worker thread on the current run.

        Returns ``False`` when no run is active (the pool only exists
        inside :meth:`serve`).  The new thread takes frames from the
        ingest queue at once — there is no warm-up handshake for a
        thread.  It counts toward the thread budget before it starts,
        so every worker's share shrinks first.
        """
        with self._workers_lock:
            ctx = self._run_ctx
            if ctx is None:
                return False
            self._budgeted += 1
            threads = runtime.add_workers(1)
            self._start_worker(ctx)
        ctx["telemetry"].worker_spawned()
        ctx["telemetry"].observe_worker_threads(threads)
        self.obs.events.emit("worker_added", engine="threaded")
        return True

    def retire_worker(self) -> bool:
        """Retire one worker thread once it has finished its batch.

        The next worker to come back for frames — an idle one wakes at
        once — exits instead, ahead of any queued frame; the others
        run those frames.  Refused (``False``) when it would empty the
        pool, when no run is active, or once the run is shutting down.
        """
        with self._workers_lock:
            ctx = self._run_ctx
            if ctx is None or self._live_workers <= 1:
                return False
            try:
                ctx["ingest"].retire_consumer()
            except QueueClosed:
                return False  # shutting down: every worker exits anyway
            self._live_workers -= 1
        self.obs.events.emit("worker_retired", engine="threaded")
        return True

    def _start_worker(self, ctx: dict) -> threading.Thread:
        """Spawn + register one worker thread (_workers_lock held)."""
        self._worker_seq += 1
        thread = threading.Thread(
            target=self._worker_loop,
            args=(ctx,),
            name=f"serve-worker-{self._worker_seq}",
            daemon=True,
        )
        self._worker_threads.append(thread)
        self._live_workers += 1
        thread.start()
        return thread

    # -- pipeline stages -------------------------------------------------

    def _fail(self, ctx: dict, exc: BaseException) -> None:
        """Record a worker failure: this is where :attr:`broken` turns true.

        The first failure of a run emits ``engine_broken`` and dumps
        the flight recorder to the log, while the ring still holds the
        events and traces that led up to it.
        """
        with ctx["results_lock"]:
            errors: list[BaseException] = ctx["errors"]
            errors.append(exc)
            first = len(errors) == 1
        if not first:
            return
        self.obs.events.emit(
            "engine_broken", engine="threaded", error=type(exc).__name__
        )
        dump = self.obs.recorder.dump()
        if dump:
            logger.warning(
                "flight recorder dump (%s):\n%s", type(exc).__name__, dump
            )

    def _worker_loop(self, ctx: dict) -> None:
        """Execute micro-batches until the ingest queue closes and
        drains, or until this worker takes a retire.

        A failed worker keeps *draining* the queue (discarding frames)
        rather than exiting, so a blocked producer is never left
        without a consumer.  The recorded exception is re-raised by
        :meth:`serve` after shutdown.
        """
        ingest: BoundedQueue = ctx["ingest"]
        results: dict[int, np.ndarray] = ctx["results"]
        results_lock: threading.Lock = ctx["results_lock"]
        telemetry: ServeTelemetry = ctx["telemetry"]
        sink: Sink | None = ctx["sink"]
        log_state: dict = ctx["log_state"]
        failed = False
        while True:
            try:
                frames: list[PendingFrame] = ingest.get_batch(
                    self.max_batch, _frame_key
                )
            except QueueClosed:
                with self._workers_lock:
                    self._live_workers -= 1
                return
            except ConsumerRetired:
                # retire_worker() already released the live slot; the
                # thread budget is released as the thread exits.
                with self._workers_lock:
                    self._budgeted -= 1
                    threads = runtime.remove_workers(1)
                telemetry.worker_exited()
                telemetry.observe_worker_threads(threads)
                return
            if failed:
                # Discarded unexecuted: close its traces so a failed
                # run still balances started against completed.
                _finish_engine_traces(frames, "error")
                continue
            dispatch_time = self.clock.now()
            try:
                images = self.beamformer.beamform_batch(
                    [frame.dataset for frame in frames]
                )
                done_time = self.clock.now()
                if self.keep_images:
                    with results_lock:
                        for frame, image in zip(frames, images):
                            results[frame.seq] = image
                telemetry.batch_done(
                    [frame.submitted_at for frame in frames],
                    dispatch_time,
                    done_time,
                )
                for frame in frames:
                    if frame.trace is not None:
                        frame.trace.add_span(
                            "queue_wait", frame.submitted_at, dispatch_time
                        )
                        frame.trace.add_span(
                            "execute", dispatch_time, done_time,
                            batch_size=len(frames),
                        )
                if sink is not None:
                    for frame, image in zip(frames, images):
                        sink(frame.seq, frame.dataset, image)
                # Engine-owned traces end with the sink.
                _finish_engine_traces(frames, "ok")
            except BaseException as exc:  # propagated after join
                self._fail(ctx, exc)
                _finish_engine_traces(frames, "error")
                failed = True
                continue
            self._maybe_log(telemetry, log_state)

    def _maybe_log(self, telemetry: ServeTelemetry, state: dict) -> None:
        if self.log_every_s <= 0:
            return
        now = self.clock.now()
        with state["lock"]:
            if now - state["last"] < self.log_every_s:
                return
            state["last"] = now
        logger.info(telemetry.log_line())

    # -- entry point -----------------------------------------------------

    def serve(
        self,
        source: Iterable,
        sink: Sink | None = None,
        telemetry: ServeTelemetry | None = None,
    ) -> ServeReport:
        """Run the pipeline over ``source`` until it is exhausted.

        Args:
            source: any iterable of plane-wave datasets (typically a
                :class:`~repro.serve.sources.FrameSource`).
            sink: optional per-image callback ``(seq, dataset, image)``,
                invoked from worker threads as results complete.
            telemetry: optional externally owned
                :class:`~repro.serve.telemetry.ServeTelemetry` to record
                into — lets a live consumer (the gateway's ``stats``
                endpoint) snapshot the run mid-flight.  Default: a fresh
                instance per run.

        Returns:
            A :class:`ServeReport` with images in submission order.

        Raises:
            The first worker/sink exception, if any stage failed.
        """
        telemetry = telemetry or ServeTelemetry(
            clock=self.clock, metrics=self.obs.metrics
        )
        ingest = BoundedQueue(self.queue_capacity, self.backpressure)
        results: dict[int, np.ndarray] = {}
        # Shared with the `broken` property (and reset per run) so a
        # live consumer can observe a failed stage mid-run.
        errors = self._run_errors = []
        dropped: list[int] = []
        ctx = {
            "ingest": ingest,
            "results": results,
            "results_lock": threading.Lock(),
            "telemetry": telemetry,
            "sink": sink,
            "errors": errors,
            "log_state": {
                "lock": threading.Lock(), "last": self.clock.now()
            },
        }
        with self._workers_lock:
            self._run_ctx = ctx
            self._worker_threads = []
            self._live_workers = 0
            self._worker_seq = 0
            # The pool counts toward the thread budget before any
            # worker runs a batch.
            self._budgeted = self.n_workers
            threads = runtime.add_workers(self.n_workers)
            for _ in range(self.n_workers):
                self._start_worker(ctx)
        telemetry.workers_started(self.n_workers)
        telemetry.observe_worker_threads(threads)

        seq = 0
        try:
            seq = pump_source(
                source, ingest, telemetry, dropped,
                tracer=self.obs.tracer, events=self.obs.events,
            )
        finally:
            # Closing the queue ends the workers once it has drained.
            ingest.close()
            # Freeze the pool (no further add/retire), then join every
            # thread the run ever started — retired ones are already
            # dead and join instantly.
            with self._workers_lock:
                self._run_ctx = None
                workers = list(self._worker_threads)
                self._worker_threads = []
            for worker in workers:
                worker.join()
            with self._workers_lock:
                runtime.remove_workers(self._budgeted)
                self._budgeted = 0

        if errors:
            raise errors[0]

        images: list[np.ndarray | None] = [
            results.get(index) for index in range(seq)
        ]
        report = ServeReport(
            images=images,
            dropped=sorted(dropped),
            stats=telemetry.stats(),
        )
        if self.log_every_s > 0:
            logger.info("serve finished: %s", telemetry.log_line())
        return report
