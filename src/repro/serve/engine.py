"""The streaming beamforming engine: source → scheduler → workers → sink.

:class:`ServeEngine` turns any :class:`~repro.api.base.Beamformer` into
a live pipeline:

::

    FrameSource ──▶ ingest queue ──▶ MicroBatcher ──▶ batch queue ──▶ worker pool ──▶ sink
     (caller thread)  (backpressure)  (batcher thread)   (bounded)     (N threads)     (callback)

* The **caller thread** iterates the source and enqueues frames.  The
  ingest queue's backpressure policy decides what happens when the
  pipeline falls behind: ``"block"`` (lossless) or ``"drop_oldest"``
  (bounded latency, dropped frames are reported by sequence number).
* The **batcher thread** owns the :class:`MicroBatcher` — it drains the
  ingest queue, groups frames by acquisition geometry and dispatches
  micro-batches on ``max_batch``/``max_latency_ms``.
* **Workers** execute ``beamformer.beamform_batch`` on each micro-batch
  (same-geometry frames: one cached ToF plan, one stacked model forward)
  and deliver images to the sink callback and the result table.
* Pipelining is the point: while a worker beamforms, the caller thread
  is already waiting on (or simulating) the *next* frames, so
  acquisition time and compute overlap instead of adding up.

Shutdown is graceful by construction: when the source ends, the ingest
queue closes, the batcher flushes every pending frame, workers drain the
batch queue and exit on sentinels — no frame is lost (asserted by the
tier-1 serve tests).

Failure is contained to the run, not the process: an exception in a
worker or the batcher marks the engine :attr:`~ServeEngine.broken`,
dumps the flight recorder to the log and is re-raised by ``serve``.
Workers share the process, so a crash below Python (a segfault in a
compiled kernel) ends the whole process; restarting it is the process
supervisor's job (DESIGN.md §5).

Output parity: frames are normalized per frame and batch forwards are
batch-invariant (see ``repro.nn.layers.dense``), so a served image is
bit-for-bit identical to ``beamformer.beamform(frame)`` offline.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.api.base import Beamformer
from repro.obs import Observability
from repro.serve.clock import Clock, MonotonicClock
from repro.serve.queues import (
    BACKPRESSURE_POLICIES,
    BoundedQueue,
    QueueClosed,
    QueueTimeout,
)
from repro.serve.scheduler import MicroBatch, MicroBatcher, PendingFrame
from repro.serve.telemetry import ServeTelemetry

logger = logging.getLogger("repro.serve")

#: Sink callback signature: ``(seq, dataset, iq_image) -> None``.
Sink = Callable[[int, object, np.ndarray], None]

#: Broadcast shutdown marker: each worker re-puts it before exiting, so
#: one token terminates however many workers are live at shutdown time
#: (the pool size is runtime-mutable; a counted sentinel scheme would
#: race against add/retire).
_SHUTDOWN = object()

#: Targeted retire marker: consumed by exactly *one* worker, which
#: exits without re-putting.  FIFO ordering gives drain-before-exit for
#: free — every batch queued before the retire is executed first.
_RETIRE = object()


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


def run_batcher(
    ingest: BoundedQueue,
    dispatch: Callable[[MicroBatch], None],
    scheduler: MicroBatcher,
) -> None:
    """Drain ``ingest`` through ``scheduler`` until the queue closes.

    ``dispatch`` receives every due :class:`MicroBatch`.  The scheduler
    is owned (and supplied) by the engine so its limits stay reachable
    — and runtime-mutable via ``engine.set_batching`` — while the loop
    runs; its flush limits are re-read on every decision.  Returns
    after the closing flush has dispatched every pending frame;
    exceptions (from keying a frame or from ``dispatch``) propagate to
    the caller, which owns thread-death handling.
    """
    clock = scheduler.clock
    while True:
        deadline = scheduler.next_deadline()
        timeout = (
            None if deadline is None
            else max(0.0, deadline - clock.now())
        )
        try:
            scheduler.add(ingest.get(timeout=timeout))
            # Opportunistically drain whatever else already arrived so
            # a burst becomes one batch, not max_batch batches — but
            # never hold more than a batch's worth of frames:
            # backpressure must build in the *bounded* ingest queue,
            # not in the scheduler.
            while (
                len(ingest) > 0
                and scheduler.pending < scheduler.max_batch
            ):
                try:
                    scheduler.add(ingest.get(timeout=0.0))
                except (QueueTimeout, QueueClosed):
                    break
        except QueueTimeout:
            pass  # a deadline expired; ready() flushes it below
        except QueueClosed:
            for batch in scheduler.flush():
                dispatch(batch)
            return
        for batch in scheduler.ready():
            dispatch(batch)


def pump_source(
    source: Iterable,
    ingest: BoundedQueue,
    telemetry: ServeTelemetry,
    dropped: list[int],
    tracer=None,
    events=None,
) -> int:
    """Feed ``source`` into the ingest queue; the producer half of serve.

    Assigns sequence numbers, applies the queue's backpressure policy
    (recording evictions in ``dropped`` and telemetry), and stops early
    if the queue is closed under it (a dead batcher must stop the
    producer, not deadlock it).  Returns the number of frames
    submitted.  The caller still owns ``ingest.close``
    — typically in a ``finally`` so shutdown happens on source errors
    too.

    Tracing: a dataset that already carries a ``trace`` attribute (the
    gateway attaches one at ingress) keeps it; otherwise ``tracer``
    (when given) decides per frame whether to sample a fresh
    engine-owned trace.  Evicted frames' traces finish immediately
    with ``status="dropped"`` and the eviction lands in ``events``.
    """
    seq = 0
    for dataset in source:
        submitted_at = telemetry.frame_submitted()
        trace = getattr(dataset, "trace", None)
        if trace is None and tracer is not None:
            trace = tracer.start_trace(
                "frame", start=submitted_at, owner="engine", seq=seq
            )
        frame = PendingFrame(
            seq=seq, dataset=dataset, submitted_at=submitted_at,
            trace=trace,
        )
        seq += 1
        try:
            evicted = ingest.put(frame)
        except QueueClosed:
            # The consumer side failed and closed the queue; stop
            # ingesting and let the caller surface its exception.
            if trace is not None:
                trace.finish(status="queue_closed")
            break
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
        max_batch: micro-batch size cap (scheduler flush trigger).
        max_latency_ms: batching deadline — no frame waits longer than
            this for its batch to fill.
        queue_capacity: ingest queue bound (backpressure kicks in here).
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
        max_latency_ms: float = 25.0,
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
        self.max_batch = max_batch
        self.max_latency_ms = max_latency_ms
        self.queue_capacity = queue_capacity
        self.backpressure = backpressure
        self.n_workers = n_workers
        self.clock = clock or MonotonicClock()
        self.log_every_s = log_every_s
        self.keep_images = keep_images
        self.obs = observability or Observability.create(clock=self.clock)
        self._run_errors: list[BaseException] = []
        # Live worker-pool state: the scheduler and run context exist
        # only while serve() runs; the registry accumulates every
        # thread started for the current run (including retired ones —
        # join()ing a finished thread is free).  Guarded by
        # _workers_lock, which orders add/retire against shutdown.
        self._scheduler: MicroBatcher | None = None
        self._run_ctx: dict | None = None
        self._worker_threads: list[threading.Thread] = []
        self._workers_lock = threading.Lock()
        self._live_workers = 0
        self._worker_seq = 0

    @property
    def broken(self) -> bool:
        """True once a stage of the current run has failed.

        The engine's error contract defers the raise to the end of the
        run (failed workers keep draining so nothing deadlocks), but a
        push-style caller with a potentially unbounded source — the
        gateway — needs to *see* the failure to stop feeding; it polls
        this.  The flag resets on the next ``serve`` call: a failed run
        does not poison the engine.
        """
        return bool(self._run_errors)

    # -- runtime control -------------------------------------------------

    def set_batching(
        self,
        max_batch: int | None = None,
        max_latency_ms: float | None = None,
    ) -> None:
        """Adjust micro-batching limits, live when a run is active.

        The new values are validated together, stored on the engine
        (they seed the next run's scheduler) and pushed into the
        current run's :class:`MicroBatcher`, whose limits are re-read
        at every flush decision.  A deadline cut takes effect at the
        batcher's next wake-up — bounded by one *old* deadline when it
        is mid-wait — and never drops or double-emits a pending frame.
        """
        new_batch = self.max_batch if max_batch is None else max_batch
        new_latency = (
            self.max_latency_ms if max_latency_ms is None
            else max_latency_ms
        )
        MicroBatcher._validate_limits(new_batch, new_latency / 1e3)
        self.max_batch = new_batch
        self.max_latency_ms = new_latency
        scheduler = self._scheduler
        if scheduler is not None:
            scheduler.set_limits(
                max_batch=new_batch, max_latency_s=new_latency / 1e3
            )

    @property
    def live_workers(self) -> int:
        """Worker threads currently executing batches."""
        with self._workers_lock:
            return self._live_workers

    def add_worker(self) -> bool:
        """Start one more worker thread on the current run.

        Returns ``False`` when no run is active (the pool only exists
        inside :meth:`serve`).  The new thread joins the shared batch
        queue immediately — there is no warm-up handshake for a thread.
        """
        with self._workers_lock:
            ctx = self._run_ctx
            if ctx is None:
                return False
            self._start_worker(ctx)
        ctx["telemetry"].worker_spawned()
        self.obs.events.emit("worker_added", engine="threaded")
        return True

    def retire_worker(self) -> bool:
        """Retire one worker thread, draining queued batches first.

        A ``_RETIRE`` token is queued *behind* every already-dispatched
        batch (FIFO), so the worker that consumes it has nothing left
        to execute; exactly one worker exits.  Refused (``False``) when
        it would empty the pool or no run is active.
        """
        with self._workers_lock:
            ctx = self._run_ctx
            if ctx is None or self._live_workers <= 1:
                return False
            # Reserve the slot under the lock so concurrent retires
            # cannot race the pool below one worker.
            self._live_workers -= 1
        ctx["batches"].put(_RETIRE)
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
        """Record a stage failure: this is where :attr:`broken` turns true.

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

    def _batcher_loop(
        self, scheduler: MicroBatcher, ingest: BoundedQueue, ctx: dict
    ) -> None:
        """Drain ingest into the scheduler; dispatch due micro-batches.

        Wrapped so that *any* failure (e.g. a frame whose geometry
        cannot be keyed) still closes the ingest queue — unblocking the
        producer — and still delivers the shutdown token: a dead
        batcher must degrade into a raised exception, never a deadlock.
        """
        batches: BoundedQueue = ctx["batches"]
        telemetry: ServeTelemetry = ctx["telemetry"]

        def dispatch(batch: MicroBatch) -> None:
            batches.put(batch)
            telemetry.observe_queue_depth("batch", len(batches))

        try:
            run_batcher(ingest, dispatch, scheduler)
        except BaseException as exc:  # re-raised by serve() after join
            self._fail(ctx, exc)
            ingest.close()
        finally:
            # One token shuts down the whole pool: each worker re-puts
            # it before exiting, so the broadcast reaches however many
            # workers are live — including any added mid-run.
            batches.put(_SHUTDOWN)

    def _worker_loop(self, ctx: dict) -> None:
        """Execute micro-batches until a shutdown/retire token arrives.

        A failed worker keeps *draining* its queue (discarding batches)
        rather than exiting: with a dead consumer the batcher's blocking
        dispatch — and behind it the ingest thread — would deadlock.
        The recorded exception is re-raised by :meth:`serve` after
        shutdown.
        """
        batches: BoundedQueue = ctx["batches"]
        results: dict[int, np.ndarray] = ctx["results"]
        results_lock: threading.Lock = ctx["results_lock"]
        telemetry: ServeTelemetry = ctx["telemetry"]
        sink: Sink | None = ctx["sink"]
        log_state: dict = ctx["log_state"]
        failed = False
        while True:
            batch = batches.get()
            if batch is _SHUTDOWN:
                batches.put(_SHUTDOWN)  # pass it on to the next worker
                with self._workers_lock:
                    self._live_workers -= 1
                return
            if batch is _RETIRE:
                # retire_worker() already released the live slot.
                telemetry.worker_exited()
                return
            if failed:
                # Discarded unexecuted: close its traces so a failed
                # run still balances started against completed.
                _finish_engine_traces(batch.frames, "error")
                continue
            dispatch_time = self.clock.now()
            datasets = [frame.dataset for frame in batch.frames]
            try:
                images = self.beamformer.beamform_batch(datasets)
                done_time = self.clock.now()
                if self.keep_images:
                    with results_lock:
                        for frame, image in zip(batch.frames, images):
                            results[frame.seq] = image
                telemetry.batch_done(
                    [frame.submitted_at for frame in batch.frames],
                    dispatch_time,
                    done_time,
                )
                for frame in batch.frames:
                    if frame.trace is not None:
                        frame.trace.add_span(
                            "queue_wait", frame.submitted_at, dispatch_time
                        )
                        frame.trace.add_span(
                            "execute", dispatch_time, done_time,
                            batch_size=len(batch.frames),
                        )
                if sink is not None:
                    for frame, image in zip(batch.frames, images):
                        sink(frame.seq, frame.dataset, image)
                # Engine-owned traces end with the sink.
                _finish_engine_traces(batch.frames, "ok")
            except BaseException as exc:  # propagated after join
                self._fail(ctx, exc)
                _finish_engine_traces(batch.frames, "error")
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
        batches = BoundedQueue(
            max(2, 2 * self.n_workers), "block"
        )
        results: dict[int, np.ndarray] = {}
        results_lock = threading.Lock()
        # Shared with the `broken` property (and reset per run) so a
        # live consumer can observe a failed stage mid-run.
        errors = self._run_errors = []
        dropped: list[int] = []
        log_state = {"lock": threading.Lock(), "last": self.clock.now()}
        scheduler = MicroBatcher(
            max_batch=self.max_batch,
            max_latency_s=self.max_latency_ms / 1e3,
            clock=self.clock,
        )
        ctx = {
            "batches": batches,
            "results": results,
            "results_lock": results_lock,
            "telemetry": telemetry,
            "sink": sink,
            "errors": errors,
            "log_state": log_state,
        }

        batcher = threading.Thread(
            target=self._batcher_loop,
            args=(scheduler, ingest, ctx),
            name="serve-batcher",
            daemon=True,
        )
        with self._workers_lock:
            self._scheduler = scheduler
            self._run_ctx = ctx
            self._worker_threads = []
            self._live_workers = 0
            self._worker_seq = 0
            for _ in range(self.n_workers):
                self._start_worker(ctx)
        batcher.start()

        seq = 0
        try:
            seq = pump_source(
                source, ingest, telemetry, dropped,
                tracer=self.obs.tracer, events=self.obs.events,
            )
        finally:
            ingest.close()
            batcher.join()
            # Freeze the pool (no further add/retire), then join every
            # thread the run ever started — retired ones are already
            # dead and join instantly.
            with self._workers_lock:
                self._scheduler = None
                self._run_ctx = None
                workers = list(self._worker_threads)
                self._worker_threads = []
            for worker in workers:
                worker.join()

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
