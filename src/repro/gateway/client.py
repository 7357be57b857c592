"""`GatewayClient` — pure-Python blocking client for the gateway.

The client speaks the wire protocol of :mod:`repro.gateway.protocol`
over one plain ``socket`` per session: no asyncio, no third-party
dependencies, importable anywhere (a probe-side acquisition script, a
test, another service).  One connection is one *session* bound to one
acquisition geometry; open several clients (e.g. from threads) for
concurrent sessions.

Typical use::

    from repro.gateway import GatewayClient
    from repro.gateway.protocol import dataset_geometry

    with GatewayClient(host, port) as client:
        client.connect(dataset_geometry(dataset))
        for image in client.stream([f.rf for f in frames]):
            ...                      # complex IQ, submission order
        print(client.stats()["engine"]["throughput_frames_per_s"])

Lower level, the client pipelines explicitly: :meth:`submit` sends one
frame without waiting, :meth:`result` blocks until a given sequence
number's image (results may return out of submission order — e.g. from
a multi-worker engine — and are matched by ``seq``).  A server ``reject``
surfaces as :class:`GatewayRejected`; a fatal server ``error`` as
:class:`GatewayError` with the protocol error code.
"""

from __future__ import annotations

import select
import socket
from typing import Iterable, Iterator

import numpy as np

from repro.gateway.protocol import (
    PROTOCOL_VERSION,
    array_header,
    array_payload,
    decode_array,
    recv_message,
    send_message,
)


class GatewayError(RuntimeError):
    """The server answered with a fatal protocol ``error`` message."""

    def __init__(self, code: str, message: str) -> None:
        """Record the protocol error ``code`` and server message."""
        super().__init__(f"[{code}] {message}")
        self.code = code


class GatewayRejected(RuntimeError):
    """A submitted frame was rejected (admission control)."""

    def __init__(self, seq: int, code: str, message: str) -> None:
        """Record the rejected frame's ``seq`` and the reject ``code``."""
        super().__init__(f"frame {seq}: [{code}] {message}")
        self.seq = seq
        self.code = code


class GatewayClient:
    """One gateway session over one blocking TCP connection.

    Args:
        host: gateway address.
        port: gateway port.
        timeout: socket timeout in seconds applied to every blocking
            operation (``socket.timeout`` propagates on expiry).

    The client is a context manager; leaving the ``with`` block sends
    ``bye`` (waiting for in-flight results to drain server-side) and
    closes the socket.
    """

    def __init__(
        self, host: str, port: int, timeout: float = 60.0
    ) -> None:
        """Store the endpoint; nothing connects until :meth:`connect`."""
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self.session: int | None = None
        self.max_inflight: int | None = None
        self._next_seq = 0
        self._inflight: set[int] = set()
        self._results: dict[int, np.ndarray] = {}
        self._rejects: dict[int, tuple[str, str]] = {}
        self._stats: dict | None = None
        self._metrics: tuple[dict, str] | None = None
        self._traces: list | None = None
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    def connect(self, geometry: dict | None = None) -> "GatewayClient":
        """Open the connection and negotiate the session geometry.

        Args:
            geometry: the wire geometry dict — build it with
                :func:`repro.gateway.protocol.dataset_geometry` (from a
                dataset) or :func:`~repro.gateway.protocol.geometry_to_wire`
                (from raw probe/grid parts).  ``None`` opens an
                *observer* session instead: no geometry, no frame
                credit — only the control verbs (``stats``,
                ``metrics``, ``traces``) work.  The obs CLI
                (``python -m repro.obs``) tails gateways this way.

        Returns:
            ``self``, with :attr:`session` and :attr:`max_inflight` set
            from the server's ``hello_ok``.

        Raises:
            GatewayError: the server refused the session
                (``version_mismatch``, ``session_cap``, ``draining``,
                ``bad_geometry``).
        """
        if self._sock is not None:
            raise RuntimeError("client is already connected")
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        hello: dict = {"type": "hello", "v": PROTOCOL_VERSION}
        if geometry is None:
            hello["observe"] = True
        else:
            hello["geometry"] = geometry
        send_message(self._sock, hello)
        header, _ = recv_message(self._sock)
        if header["type"] == "error":
            raise GatewayError(header["code"], header.get("message", ""))
        if header["type"] != "hello_ok":
            raise GatewayError(
                "malformed", f"unexpected handshake reply {header!r}"
            )
        self.session = header["session"]
        self.max_inflight = header["max_inflight"]
        return self

    def close(self) -> int | None:
        """Say ``bye`` (draining in-flight results) and disconnect.

        Returns:
            The server's served-frame count from ``bye_ok``, or ``None``
            if the connection was already gone (or failed during the
            goodbye — close never raises for a dead peer, so a
            ``with`` body's own exception is never masked).
        """
        if self._sock is None or self._closed:
            return None
        self._closed = True
        served = None
        try:
            send_message(self._sock, {"type": "bye"})
            while True:
                header, payload = recv_message(self._sock)
                if header["type"] == "bye_ok":
                    served = header.get("served")
                    break
                self._dispatch(header, payload)
        except (ConnectionError, OSError, GatewayError):
            pass
        finally:
            self._sock.close()
            self._sock = None
        return served

    def __enter__(self) -> "GatewayClient":
        """No-op (connect separately, geometry in hand); returns self."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Close the session on ``with`` exit."""
        self.close()

    # -- streaming -------------------------------------------------------

    def submit(self, rf: np.ndarray, seq: int | None = None) -> int:
        """Send one RF frame without waiting for its result.

        Args:
            rf: the frame, matching the negotiated ``rf_shape`` and
                ``rf_dtype``.
            seq: client-chosen id (default: auto-increment).

        Returns:
            The frame's sequence number (echoed back on its result).
        """
        self._require_session()
        if seq is None:
            seq = self._next_seq
        self._next_seq = max(self._next_seq, seq) + 1
        rf = np.asarray(rf)
        send_message(
            self._sock,
            array_header("frame", rf, seq=seq),
            array_payload(rf),
        )
        self._inflight.add(seq)
        return seq

    def result(self, seq: int) -> np.ndarray:
        """Block until frame ``seq``'s beamformed image arrives.

        Raises:
            GatewayRejected: the server rejected the frame.
            GatewayError: the session failed fatally.
        """
        self._require_session()
        while True:
            if seq in self._results:
                self._inflight.discard(seq)
                return self._results.pop(seq)
            if seq in self._rejects:
                self._inflight.discard(seq)
                code, message = self._rejects.pop(seq)
                raise GatewayRejected(seq, code, message)
            self._pump()

    def poll(self) -> None:
        """Drain server messages already buffered, without blocking.

        A paced producer that defers :meth:`result` calls must still
        read the socket, or delivered images pile up in the kernel
        buffer until the server's writes — and then its reads, and
        then the client's :meth:`submit` — all stall.  Calling
        ``poll`` between submits keeps the pipe flowing; afterwards,
        :meth:`has_result` says which pending frames :meth:`result`
        would now return instantly.
        """
        self._require_session()
        while True:
            ready, _, _ = select.select([self._sock], [], [], 0)
            if not ready:
                return
            self._pump()

    def has_result(self, seq: int) -> bool:
        """Whether frame ``seq``'s outcome (image or reject) is here.

        Only reflects messages already read — call :meth:`poll` first
        to drain the socket without blocking.
        """
        return seq in self._results or seq in self._rejects

    def stream(
        self,
        rf_frames: Iterable[np.ndarray],
        window: int | None = None,
    ) -> Iterator[np.ndarray]:
        """Pipeline frames through the gateway; yield images in order.

        Keeps up to ``window`` frames in flight (default: the session's
        negotiated ``max_inflight``), so acquisition and beamforming
        overlap without tripping the server's in-flight credit.

        Yields:
            One complex IQ image per input frame, in submission order.

        Raises:
            GatewayRejected: a frame was rejected server-side (with a
                window within the credit this indicates global
                ``overloaded`` pressure).
        """
        self._require_session()
        window = window or self.max_inflight or 1
        pending: list[int] = []
        for rf in rf_frames:
            if len(pending) >= window:
                yield self.result(pending.pop(0))
            pending.append(self.submit(rf))
        while pending:
            yield self.result(pending.pop(0))

    # -- control ---------------------------------------------------------

    def stats(self) -> dict:
        """Fetch a live telemetry snapshot from the server.

        Returns:
            The server's ``stats_ok`` payload: ``{"server", "engine":
            <ServeTelemetry.stats()>, "gateway": <session counters>}``.
        """
        self._require_session()
        self._stats = None
        send_message(self._sock, {"type": "stats"})
        while self._stats is None:
            self._pump()
        return self._stats

    def metrics(self) -> dict:
        """Fetch the server's metric registry (both export formats).

        Returns:
            ``{"json": <MetricsRegistry.as_dict()>, "prometheus":
            <text exposition str>}`` — the JSON rides in the
            ``metrics_ok`` header, the Prometheus text in its payload.
        """
        self._require_session()
        self._metrics = None
        send_message(self._sock, {"type": "metrics"})
        while self._metrics is None:
            self._pump()
        json_view, text = self._metrics
        return {"json": json_view, "prometheus": text}

    def traces(self, n: int = 16) -> list:
        """Fetch the server's most recently completed traces.

        Args:
            n: maximum number of traces to return (newest last).

        Returns:
            A list of trace dicts (:meth:`repro.obs.Trace.as_dict`
            shape) — render with :func:`repro.obs.render_trace`.
        """
        self._require_session()
        self._traces = None
        send_message(self._sock, {"type": "traces", "n": n})
        while self._traces is None:
            self._pump()
        return self._traces

    # -- internals -------------------------------------------------------

    def _require_session(self) -> None:
        if self._sock is None or self.session is None:
            raise RuntimeError(
                "client is not connected (call connect(geometry))"
            )

    def _pump(self) -> None:
        """Read and dispatch exactly one server message."""
        header, payload = recv_message(self._sock)
        self._dispatch(header, payload)

    def _dispatch(self, header: dict, payload: bytes) -> None:
        kind = header["type"]
        if kind == "result":
            # Copy: decode_array views the payload buffer; results may
            # be held while many more messages stream past.
            self._results[header["seq"]] = decode_array(
                header, payload
            ).copy()
        elif kind == "reject":
            self._rejects[header["seq"]] = (
                header.get("code", "unknown"),
                header.get("message", ""),
            )
        elif kind == "stats_ok":
            self._stats = header.get("stats", {})
        elif kind == "metrics_ok":
            self._metrics = (
                header.get("metrics", {}),
                payload.decode("utf-8"),
            )
        elif kind == "traces_ok":
            self._traces = header.get("traces", [])
        elif kind == "error":
            raise GatewayError(
                header.get("code", "internal"),
                header.get("message", ""),
            )
        else:
            raise GatewayError(
                "malformed", f"unexpected server message {kind!r}"
            )
