"""The gateway server: a TCP frontend over one serving engine.

:class:`GatewayServer` multiplexes many concurrent client sessions onto
a single :class:`~repro.serve.engine.ServeEngine`:

::

    client sessions ──▶ asyncio loop thread ──▶ feed queue ──▶ engine
     (TCP, many)         (admission control)     (bounded)     (pump thread)
                 ◀── result delivery  ◀── sink callback ◀──────┘

* The **asyncio loop thread** owns every socket.  Each connection runs
  one reader coroutine: ``hello`` negotiates the session's acquisition
  geometry (decoded once, shared by every frame of the session), then
  ``frame`` messages are validated, wrapped as :class:`GatewayFrame`
  and pushed into the feed queue without ever blocking the loop.
* The **pump thread** runs ``engine.serve`` over a generator that
  drains the feed queue — the engine neither knows nor cares that its
  source is a network; micro-batching, geometry grouping and
  telemetry all apply unchanged.  Because a :class:`GatewayFrame`
  carries the session's decoded probe/grid, the engine keys and
  batches gateway traffic by geometry exactly like in-process
  traffic.
* The engine **sink** hands each image back to the loop thread
  (``run_coroutine_threadsafe``), which writes the ``result`` message
  on the owning session — out-of-order across sessions, matched by
  the client-chosen ``seq``.

Admission control is explicit, never buffered away:

* ``max_sessions`` concurrent sessions; a ``hello`` beyond the cap is
  answered ``error(session_cap)`` and closed.
* ``max_inflight`` frames per session (negotiated in ``hello_ok``); a
  frame beyond the credit is answered ``reject(inflight_cap)``.
* a full feed queue (global pressure) answers ``reject(overloaded)``.

Shutdown drains gracefully: :meth:`GatewayServer.stop` stops accepting,
rejects new work with ``draining``, closes the feed queue — the engine
flushes every admitted frame (its no-frame-loss contract) — waits for
every result delivery, then closes the sessions.  Every admitted frame
gets exactly one ``result``/``reject`` answer.

See ``docs/protocol.md`` for the wire format and ``docs/serving.md``
for the operator runbook.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from dataclasses import dataclass

import numpy as np

from repro.gateway.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    array_header,
    array_payload,
    decode_array,
    geometry_from_wire,
    header_length,
    pack_message,
    parse_header,
)
from repro.obs import Observability
from repro.serve.queues import BoundedQueue, QueueClosed, QueueTimeout
from repro.serve.telemetry import ServeTelemetry

logger = logging.getLogger("repro.gateway")


@dataclass(frozen=True)
class GatewayFrame:
    """One admitted wire frame, shaped like a dataset.

    Exposes exactly the attributes the serving/beamforming stack reads
    (``rf``, ``probe``, ``grid``, ``angle_rad``, ``sound_speed_m_s``,
    ``t_start_s``, ``name`` — the duck type of
    :meth:`repro.api.base.Beamformer.beamform`), so the engine keys,
    batches and beamforms gateway traffic identically to in-process
    datasets.  ``session``/``client_seq``
    route the finished image back to its socket.
    """

    name: str
    probe: object
    grid: object
    angle_rad: float
    sound_speed_m_s: float
    t_start_s: float
    rf: np.ndarray
    session: int
    client_seq: int
    #: the frame's :class:`repro.obs.Trace` when sampled at ingress
    #: (``None`` otherwise).  The engine sees it via the generic
    #: ``trace`` attribute and attaches its spans; the gateway owns the
    #: trace and finishes it at response delivery.
    trace: object = None


class _Session:
    """Loop-thread-owned state of one connected client."""

    def __init__(
        self,
        session_id: int,
        writer: asyncio.StreamWriter,
        geometry,
        max_inflight: int,
        observer: bool = False,
    ) -> None:
        """Bind the session to its socket writer and geometry.

        An *observer* session (``geometry`` is ``None``) may only read
        — ``stats``/``metrics``/``traces``/``bye`` — and does not count
        against the session cap, so the monitoring CLI can always
        scrape a saturated gateway.
        """
        self.id = session_id
        self.writer = writer
        self.geometry = geometry
        self.observer = observer
        self.max_inflight = max_inflight
        self.inflight = 0
        self.frames_in = 0
        self.results_out = 0
        self.rejected = 0
        self.closed = False
        self.bye_requested = False
        self.write_lock = asyncio.Lock()
        self.done = asyncio.Event()

    def counters(self) -> dict:
        """JSON-safe per-session counters for the ``stats`` endpoint."""
        return {
            "frames_in": self.frames_in,
            "results_out": self.results_out,
            "rejected": self.rejected,
            "inflight": self.inflight,
            "closed": self.closed,
        }


async def _read_message(reader: asyncio.StreamReader) -> tuple[dict, bytes]:
    """Read one protocol frame from an asyncio stream."""
    prefix = await reader.readexactly(4)
    length = header_length(prefix)
    header = parse_header(await reader.readexactly(length))
    payload = await reader.readexactly(header.get("nbytes", 0))
    return header, payload


class GatewayServer:
    """Network frontend multiplexing client sessions onto one engine.

    Args:
        engine: the :class:`~repro.serve.engine.ServeEngine` to
            front.  Build it with ``keep_images=False`` (the CLI does) so an
            unbounded gateway run holds no per-frame state, and with
            ``backpressure="block"`` — the gateway applies loss
            *before* the engine via explicit rejects, so engine-side
            drops would only orphan sessions' in-flight accounting.
        host: bind address (default loopback).
        port: bind port; ``0`` picks an ephemeral port (see
            :attr:`port` after :meth:`start`).
        max_sessions: concurrent-session admission cap.
        max_inflight: per-session in-flight frame credit, echoed to the
            client in ``hello_ok``.
        feed_capacity: bound of the loop→engine feed queue; when full,
            frames are rejected ``overloaded`` instead of buffering.
        send_timeout_s: per-message socket-write deadline.  A client
            that stops reading has its session closed after this long
            instead of parking deliveries (and the shutdown drain)
            behind its full socket buffer.
        name: server identity echoed in ``hello_ok``.
        observability: the :class:`repro.obs.Observability` bundle
            (metrics registry, tracer, event log, flight recorder).
            Defaults to the *engine's* bundle when it has one, so
            gateway counters, engine histograms and worker kernel
            timings all land in one registry and one ``metrics``
            scrape; frames sampled by the tracer get a gateway-owned
            trace spanning ingress → engine → response.

    The server is a context manager::

        with GatewayServer(engine, port=0) as gateway:
            ... connect GatewayClient(s) to gateway.port ...
        # exiting drains: admitted frames complete, sessions close
    """

    def __init__(
        self,
        engine,
        host: str = "127.0.0.1",
        port: int = 0,
        max_sessions: int = 8,
        max_inflight: int = 8,
        feed_capacity: int = 64,
        send_timeout_s: float = 30.0,
        name: str = "tiny-vbf-gateway",
        observability: Observability | None = None,
    ) -> None:
        """Validate the knobs; nothing binds until :meth:`start`."""
        if max_sessions < 1:
            raise ValueError(
                f"max_sessions must be >= 1, got {max_sessions}"
            )
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if send_timeout_s <= 0:
            raise ValueError(
                f"send_timeout_s must be > 0, got {send_timeout_s}"
            )
        self.engine = engine
        self.host = host
        self.requested_port = port
        self.max_sessions = max_sessions
        self.max_inflight = max_inflight
        self.feed_capacity = feed_capacity
        self.send_timeout_s = send_timeout_s
        self.name = name
        self.obs = (
            observability
            or getattr(engine, "obs", None)
            or Observability.create(clock=engine.clock)
        )
        self._m_sessions = self.obs.metrics.counter(
            "repro_gateway_sessions_total",
            "Gateway sessions by lifecycle event.",
            labels=("event",),
        )
        self._m_frames = self.obs.metrics.counter(
            "repro_gateway_frames_total",
            "Gateway wire frames by admission outcome.",
            labels=("event",),
        )
        self._m_results = self.obs.metrics.counter(
            "repro_gateway_results_total",
            "Gateway result deliveries by outcome.",
            labels=("event",),
        )

        self._feed: BoundedQueue | None = None
        self._telemetry: ServeTelemetry | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._pump_thread: threading.Thread | None = None
        self._server: asyncio.base_events.Server | None = None
        self._stopped_loop: asyncio.Future | None = None
        self._ready = threading.Event()
        self._drain_begun = threading.Event()
        self._start_error: BaseException | None = None
        self._port: int | None = None
        self._sessions: dict[int, _Session] = {}
        self._session_counter = 0
        self._draining = False
        self._broken = False
        self._started = False
        self._stopped = False
        self._engine_error: BaseException | None = None
        self._report = None
        self._pending: set = set()
        self._pending_lock = threading.Lock()
        self._stats = {
            "sessions_opened": 0,
            "sessions_closed": 0,
            "sessions_rejected": 0,
            "frames_received": 0,
            "frames_admitted": 0,
            "frames_rejected": 0,
            "results_delivered": 0,
            "results_orphaned": 0,
            "protocol_errors": 0,
        }

    # -- lifecycle -------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (valid after :meth:`start`)."""
        if self._port is None:
            raise RuntimeError("gateway is not started")
        return self._port

    def start(self) -> "GatewayServer":
        """Bind the listener and start the engine pump (idempotent)."""
        if self._started:
            return self
        self._feed = BoundedQueue(self.feed_capacity, "block")
        self._telemetry = ServeTelemetry(
            clock=self.engine.clock, metrics=self.obs.metrics
        )
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="gateway-loop", daemon=True
        )
        self._loop_thread.start()
        self._ready.wait()
        if self._start_error is not None:
            self._loop_thread.join()
            raise self._start_error
        self._pump_thread = threading.Thread(
            target=self._pump, name="gateway-pump", daemon=True
        )
        self._pump_thread.start()
        self._started = True
        logger.info(
            "gateway listening on %s:%d (max_sessions=%d, "
            "max_inflight=%d)",
            self.host,
            self._port,
            self.max_sessions,
            self.max_inflight,
        )
        return self

    def _run_loop(self) -> None:
        """Own the asyncio loop: bind, serve, run until stopped."""
        asyncio.set_event_loop(self._loop)
        try:
            self._server = self._loop.run_until_complete(
                asyncio.start_server(
                    self._handle_connection,
                    self.host,
                    self.requested_port,
                )
            )
            self._port = self._server.sockets[0].getsockname()[1]
        except BaseException as exc:
            self._start_error = exc
            self._ready.set()
            return
        self._stopped_loop = self._loop.create_future()
        self._ready.set()
        self._loop.run_until_complete(self._stopped_loop)
        self._server.close()
        self._loop.run_until_complete(self._server.wait_closed())
        self._loop.close()

    def _pump(self) -> None:
        """Engine caller thread: serve the feed queue until it closes."""
        try:
            self._report = self.engine.serve(
                self._frames(),
                sink=self._sink,
                telemetry=self._telemetry,
            )
        except BaseException as exc:
            self._engine_error = exc
            self._broken = True
            self.obs.events.emit(
                "engine_broken",
                engine="gateway",
                error=type(exc).__name__,
            )
            logger.exception("gateway engine failed; failing sessions")
            if self._loop is not None and not self._loop.is_closed():
                asyncio.run_coroutine_threadsafe(
                    self._on_engine_failure(exc),
                    self._loop,
                )

    async def _on_engine_failure(self, exc: BaseException) -> None:
        """Refuse all work after the shared engine died.

        A dead engine can never answer another frame, so beyond failing
        the open sessions the gateway must also stop *accepting*: new
        hellos would otherwise be admitted, buffer frames into the dead
        feed queue and hang until their socket timeout.
        """
        if self._server is not None:
            self._server.close()
        await self._fail_sessions(
            "internal", f"engine failed: {exc!r}"
        )

    def _frames(self):
        """The engine source: drain the feed queue until it closes.

        The get is polled, not unbounded: an engine whose worker failed
        only discards the frames that worker takes, and the pump
        would otherwise sit in this blocking get waiting for a next
        frame that may never come — so the source also ends when the
        engine reports itself broken, letting ``serve`` unwind and
        surface its error promptly.
        """
        while True:
            try:
                yield self._feed.get(timeout=0.5)
            except QueueTimeout:
                if getattr(self.engine, "broken", False):
                    return
            except QueueClosed:
                return

    def stop(self) -> None:
        """Drain and shut down (idempotent).

        Ordering is the graceful-drain contract: stop accepting and
        reject new work → close the feed queue → the engine flushes
        every admitted frame → wait for every result delivery →
        close the sessions → stop the loop.
        """
        if not self._started or self._stopped:
            return
        self._stopped = True
        self._call_in_loop(self._begin_drain())
        self._feed.close()
        self._pump_thread.join()
        with self._pending_lock:
            pending = list(self._pending)
        for future in pending:
            try:
                future.result(timeout=30.0)
            except Exception:
                pass  # per-delivery failures already logged/counted
        self._call_in_loop(self._close_sessions())
        self._loop.call_soon_threadsafe(
            lambda: self._stopped_loop.done()
            or self._stopped_loop.set_result(None)
        )
        self._loop_thread.join()
        self.obs.events.emit(
            "drain_complete",
            results_delivered=self._stats["results_delivered"],
            results_orphaned=self._stats["results_orphaned"],
        )
        logger.info(
            "gateway stopped: %d sessions served, %d results delivered",
            self._stats["sessions_opened"],
            self._stats["results_delivered"],
        )

    def _call_in_loop(self, coroutine) -> None:
        if self._loop.is_closed():
            coroutine.close()
            return
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        future.result(timeout=60.0)

    async def _begin_drain(self) -> None:
        self._draining = True
        self._server.close()
        self.obs.events.emit(
            "drain_begin",
            active_sessions=sum(
                not session.closed
                for session in self._sessions.values()
            ),
        )
        # Observable from other threads (tests synchronize on it).
        self._drain_begun.set()

    async def _close_sessions(self) -> None:
        for session in list(self._sessions.values()):
            await self._close_session(session)

    async def _fail_sessions(self, code: str, message: str) -> None:
        for session in list(self._sessions.values()):
            await self._send(
                session,
                {"type": "error", "code": code, "message": message},
            )
            await self._close_session(session)

    def __enter__(self) -> "GatewayServer":
        """Start the gateway on ``with`` entry."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Drain and stop the gateway on ``with`` exit."""
        self.stop()

    # -- runtime control -------------------------------------------------

    @property
    def telemetry(self) -> "ServeTelemetry | None":
        """The live run's engine telemetry (None before ``start``).

        Recreated per :meth:`start`; the control loop attaches with a
        callable (``lambda: gateway.telemetry``) so it always reads the
        current instance.
        """
        return self._telemetry

    def set_admission(
        self,
        max_sessions: int | None = None,
        max_inflight: int | None = None,
    ) -> None:
        """Change the admission-control credits at runtime.

        ``max_sessions`` applies to future handshakes (open sessions
        are never evicted — shedding happens at the frame level).
        ``max_inflight`` applies to future handshakes *and* every open
        session: a session over its shrunken credit simply has further
        frames rejected with ``inflight_cap`` until enough results
        drain — explicit early rejection instead of silent queue
        growth, which is the whole point of credit-based admission.
        Safe from any thread (the controller's tick calls it).
        """
        new_sessions = (
            self.max_sessions if max_sessions is None else max_sessions
        )
        new_inflight = (
            self.max_inflight if max_inflight is None else max_inflight
        )
        if new_sessions < 1:
            raise ValueError(
                f"max_sessions must be >= 1, got {new_sessions}"
            )
        if new_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {new_inflight}"
            )
        self.max_sessions = new_sessions
        self.max_inflight = new_inflight
        if self._started and not self._stopped:
            async def _apply() -> None:
                for session in list(self._sessions.values()):
                    session.max_inflight = new_inflight

            try:
                self._call_in_loop(_apply())
            except RuntimeError:
                pass  # loop already gone: the attribute change stands
        self.obs.events.emit(
            "admission_changed",
            max_sessions=new_sessions,
            max_inflight=new_inflight,
        )

    # -- stats -----------------------------------------------------------

    def stats(self) -> dict:
        """Live snapshot: engine :class:`ServeTelemetry` + gateway counters.

        Safe from any thread; the shape served to ``stats`` requests.
        """
        gateway = dict(self._stats)
        gateway["draining"] = self._draining
        gateway["broken"] = self._broken
        gateway["active_sessions"] = sum(
            not session.closed
            for session in list(self._sessions.values())
        )
        gateway["sessions"] = {
            str(session.id): session.counters()
            for session in list(self._sessions.values())
        }
        return {
            "server": self.name,
            "protocol_version": PROTOCOL_VERSION,
            "engine": self._telemetry.stats() if self._telemetry else {},
            "gateway": gateway,
        }

    def _reject_session(self, code: str) -> None:
        """Count one refused handshake (stats, metrics, event log)."""
        self._stats["sessions_rejected"] += 1
        self._m_sessions.inc(event="rejected")
        self.obs.events.emit("session_rejected", code=code)

    # -- connection handling (loop thread) -------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve one TCP connection: handshake, then the frame loop."""
        session: _Session | None = None
        try:
            session = await self._handshake(reader, writer)
            if session is None:
                return
            await self._session_loop(reader, session)
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            OSError,
        ):
            pass  # client went away; in-flight results are orphaned
        except ProtocolError as exc:
            self._stats["protocol_errors"] += 1
            await self._send_raw(
                writer,
                {
                    "type": "error",
                    "code": exc.code,
                    "message": str(exc),
                },
            )
        except Exception as exc:  # never let one session kill the loop
            logger.exception("session handler failed")
            await self._send_raw(
                writer,
                {
                    "type": "error",
                    "code": "internal",
                    "message": repr(exc),
                },
            )
        finally:
            if session is not None:
                await self._close_session(session)
            else:
                await self._close_writer(writer)

    async def _handshake(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> _Session | None:
        """Negotiate one session; ``None`` means refused (and answered)."""
        header, _ = await _read_message(reader)
        if header.get("type") != "hello":
            raise ProtocolError(
                "malformed",
                f"expected hello, got {header.get('type')!r}",
            )
        if header.get("v") != PROTOCOL_VERSION:
            self._reject_session("version_mismatch")
            await self._send_raw(
                writer,
                {
                    "type": "error",
                    "code": "version_mismatch",
                    "message": (
                        f"server speaks protocol {PROTOCOL_VERSION}, "
                        f"client sent {header.get('v')!r}"
                    ),
                },
            )
            return None
        if self._draining or self._broken:
            self._reject_session(
                "internal" if self._broken else "draining"
            )
            await self._send_raw(
                writer,
                {
                    "type": "error",
                    "code": "internal" if self._broken else "draining",
                    "message": (
                        "engine failed; gateway cannot serve"
                        if self._broken
                        else "server is shutting down"
                    ),
                },
            )
            return None
        observer = bool(header.get("observe"))
        active = sum(
            not session.closed and not session.observer
            for session in self._sessions.values()
        )
        if not observer and active >= self.max_sessions:
            self._reject_session("session_cap")
            await self._send_raw(
                writer,
                {
                    "type": "error",
                    "code": "session_cap",
                    "message": (
                        f"session cap reached "
                        f"({self.max_sessions} concurrent sessions)"
                    ),
                },
            )
            return None
        geometry = (
            None
            if observer
            else geometry_from_wire(header.get("geometry") or {})
        )
        self._session_counter += 1
        session = _Session(
            self._session_counter,
            writer,
            geometry,
            self.max_inflight,
            observer=observer,
        )
        self._sessions[session.id] = session
        self._stats["sessions_opened"] += 1
        self._m_sessions.inc(event="opened")
        self.obs.events.emit(
            "session_admitted", session=session.id, observer=observer
        )
        await self._send(
            session,
            {
                "type": "hello_ok",
                "v": PROTOCOL_VERSION,
                "session": session.id,
                "max_inflight": session.max_inflight,
                "server": self.name,
            },
        )
        return session

    async def _session_loop(
        self, reader: asyncio.StreamReader, session: _Session
    ) -> None:
        """Dispatch post-handshake messages until bye/EOF/error."""
        while not session.closed:
            header, payload = await _read_message(reader)
            kind = header.get("type")
            if kind == "frame":
                if session.observer:
                    raise ProtocolError(
                        "malformed",
                        "observer sessions cannot send frames",
                    )
                await self._on_frame(session, header, payload)
            elif kind == "stats":
                await self._send(
                    session, {"type": "stats_ok", "stats": self.stats()}
                )
            elif kind == "metrics":
                # Header carries the JSON form, payload the Prometheus
                # text exposition — one scrape serves both formats.
                await self._send(
                    session,
                    {
                        "type": "metrics_ok",
                        "metrics": self.obs.metrics.as_dict(),
                    },
                    self.obs.metrics.render_prometheus().encode("utf-8"),
                )
            elif kind == "traces":
                await self._send(
                    session,
                    {
                        "type": "traces_ok",
                        "traces": self.obs.tracer.recent(
                            int(header.get("n", 16))
                        ),
                    },
                )
            elif kind == "bye":
                # Stop reading; if frames are still in flight their
                # deliveries complete the goodbye (bye_ok + close).
                # Wait for that completion so the handler's cleanup
                # cannot close the session under its tail results.
                session.bye_requested = True
                await self._maybe_finish_bye(session)
                await session.done.wait()
                return
            else:
                raise ProtocolError(
                    "malformed", f"unknown message type {kind!r}"
                )

    async def _on_frame(
        self, session: _Session, header: dict, payload: bytes
    ) -> None:
        """Validate, admit (or reject) one RF frame.

        For sampled frames a *gateway-owned* trace opens here, covering
        the full network round trip; every exit path settles it —
        ``ingress`` span + admit, or ``finish(status=...)`` on reject —
        so the completed-trace store never sees an open root.
        """
        self._stats["frames_received"] += 1
        self._m_frames.inc(event="received")
        seq = header.get("seq")
        if not isinstance(seq, int):
            raise ProtocolError(
                "malformed", f"frame needs an integer seq, got {seq!r}"
            )
        ingress_start = self.engine.clock.now()
        trace = self.obs.tracer.start_trace(
            "frame",
            start=ingress_start,
            owner="gateway",
            session=session.id,
            client_seq=seq,
        )
        try:
            rf = decode_array(header, payload)
            geometry = session.geometry
            if (
                rf.shape != geometry.rf_shape
                or rf.dtype != geometry.rf_dtype
            ):
                raise ProtocolError(
                    "bad_frame",
                    f"frame {seq} is {rf.shape}/{rf.dtype.str}; "
                    f"session negotiated {geometry.rf_shape}/"
                    f"{geometry.rf_dtype.str}",
                )
            if self._broken:
                raise ProtocolError(
                    "internal", "engine failed; gateway cannot serve"
                )
        except ProtocolError as exc:
            if trace is not None:
                trace.finish(status=exc.code)
            raise
        if self._draining:
            await self._reject(session, seq, "draining", trace)
            return
        if session.inflight >= session.max_inflight:
            await self._reject(session, seq, "inflight_cap", trace)
            return
        if not np.isfinite(rf).all() or not rf.any():
            # A silent/non-finite frame can poison a learned pipeline
            # (and kills the shared engine run with it); refuse it at
            # the door instead.
            await self._reject(session, seq, "bad_frame", trace)
            return
        frame = GatewayFrame(
            name=f"session-{session.id}/frame-{seq}",
            probe=geometry.probe,
            grid=geometry.grid,
            angle_rad=geometry.angle_rad,
            sound_speed_m_s=geometry.sound_speed_m_s,
            t_start_s=geometry.t_start_s,
            rf=rf,
            session=session.id,
            client_seq=seq,
            trace=trace,
        )
        try:
            self._feed.put(frame, timeout=0.0)
        except QueueTimeout:
            await self._reject(session, seq, "overloaded", trace)
            return
        except QueueClosed:
            await self._reject(session, seq, "draining", trace)
            return
        if trace is not None:
            trace.add_span(
                "ingress",
                ingress_start,
                self.engine.clock.now(),
                nbytes=len(payload),
            )
        session.inflight += 1
        session.frames_in += 1
        self._stats["frames_admitted"] += 1
        self._m_frames.inc(event="admitted")
        if self._telemetry is not None:
            # Depth signals for the control loop, sampled at every
            # admit.  ``feed`` is how far the gateway runs ahead of
            # the engine; ``inflight`` is the total admitted-but-
            # undelivered frame count across sessions — the *leading*
            # saturation signal, because the engine's ingest depth
            # counts only frames no worker has taken yet and backs up
            # only after the damage is queued.
            self._telemetry.observe_queue_depth(
                "feed", len(self._feed)
            )
            self._telemetry.observe_queue_depth(
                "inflight",
                sum(
                    s.inflight
                    for s in list(self._sessions.values())
                ),
            )

    async def _reject(
        self, session: _Session, seq: int, code: str, trace=None
    ) -> None:
        session.rejected += 1
        self._stats["frames_rejected"] += 1
        self._m_frames.inc(event="rejected")
        if trace is not None:
            trace.finish(status=code)
        await self._send(
            session,
            {
                "type": "reject",
                "seq": seq,
                "code": code,
                "message": f"frame {seq} rejected: {code}",
            },
        )

    # -- result delivery -------------------------------------------------

    def _sink(self, seq: int, frame: GatewayFrame, image) -> None:
        """Engine sink: hand one finished image to the loop thread.

        Called from engine worker/collector threads; scheduling is
        fire-and-forget so a slow client socket never stalls the
        engine, but every delivery future is tracked so :meth:`stop`
        can wait for the tail.
        """
        future = asyncio.run_coroutine_threadsafe(
            self._deliver(frame, np.asarray(image)), self._loop
        )
        with self._pending_lock:
            self._pending.add(future)
        future.add_done_callback(self._discard_pending)

    def _discard_pending(self, future) -> None:
        with self._pending_lock:
            self._pending.discard(future)
        exc = future.exception()
        if exc is not None:
            logger.warning("result delivery failed: %r", exc)

    async def _deliver(self, frame: GatewayFrame, image) -> None:
        """Write one ``result`` message on the owning session.

        This is where a gateway-owned trace ends: a ``respond`` span
        around the socket write, then ``finish`` — or an ``orphaned``
        finish when the session is already gone.
        """
        session = self._sessions.get(frame.session)
        if session is None or session.closed:
            self._stats["results_orphaned"] += 1
            self._m_results.inc(event="orphaned")
            if frame.trace is not None:
                frame.trace.finish(status="orphaned")
            return
        session.inflight -= 1
        # Count before the write: result bytes can reach the client
        # before drain() returns, and a client that has *seen* result N
        # must also see results_out >= N in an immediately-following
        # stats snapshot.  A failed send is rolled back — that client
        # stopped reading, so it cannot observe the transient.
        session.results_out += 1
        self._stats["results_delivered"] += 1
        respond_start = self.engine.clock.now()
        delivered = await self._send(
            session,
            array_header("result", image, seq=frame.client_seq),
            array_payload(image),
        )
        if delivered:
            self._m_results.inc(event="delivered")
        else:
            session.results_out -= 1
            self._stats["results_delivered"] -= 1
            self._stats["results_orphaned"] += 1
            self._m_results.inc(event="orphaned")
        if frame.trace is not None:
            frame.trace.add_span(
                "respond",
                respond_start,
                self.engine.clock.now(),
                delivered=delivered,
            )
            frame.trace.finish(
                status="ok" if delivered else "orphaned"
            )
        await self._maybe_finish_bye(session)

    async def _maybe_finish_bye(self, session: _Session) -> None:
        """Complete a pending ``bye`` once the session has no in-flight."""
        if not session.bye_requested or session.inflight > 0:
            return
        session.bye_requested = False
        await self._send(
            session,
            {"type": "bye_ok", "served": session.results_out},
        )
        await self._close_session(session)

    # -- plumbing --------------------------------------------------------

    async def _send(
        self, session: _Session, header: dict, payload: bytes = b""
    ) -> bool:
        """Serialize one message onto a session; False if it is gone.

        The drain is deadlined by ``send_timeout_s``: a peer that
        stops reading must not park deliveries (which hold the
        session's write lock, and at shutdown the drain) behind its
        full socket buffer forever — its session is closed instead.
        """
        if session.closed:
            return False
        async with session.write_lock:
            if session.closed:
                return False
            try:
                session.writer.write(pack_message(header, payload))
                await asyncio.wait_for(
                    session.writer.drain(), timeout=self.send_timeout_s
                )
                return True
            except (ConnectionError, OSError, asyncio.TimeoutError):
                await self._close_session(session)
                return False

    async def _send_raw(
        self, writer: asyncio.StreamWriter, header: dict
    ) -> None:
        """Best-effort write outside any session (refusals, errors)."""
        try:
            writer.write(pack_message(header))
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    async def _close_session(self, session: _Session) -> None:
        if session.closed:
            self._sessions.pop(session.id, None)
            return
        session.closed = True
        session.done.set()
        self._stats["sessions_closed"] += 1
        self._m_sessions.inc(event="closed")
        self.obs.events.emit(
            "session_closed",
            session=session.id,
            results_out=session.results_out,
        )
        self._sessions.pop(session.id, None)
        await self._close_writer(session.writer)

    async def _close_writer(self, writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
