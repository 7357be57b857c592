"""Single-threaded load generator speaking the gateway wire protocol.

The generator is a remote probe: it opens one TCP session per probe,
negotiates the geometry with ``hello`` and streams ``frame`` messages,
using only the public :mod:`repro.gateway.protocol` functions.  One
thread multiplexes every session with a selector, so it can send on
schedule and timestamp each result the moment it arrives.

Each returned image is reduced to a digest of its dtype, shape and
bytes; the run later compares it with offline ``beamform`` of the same
frame.
"""

from __future__ import annotations

import hashlib
import selectors
import socket
import time
from dataclasses import dataclass, field

import numpy as np

from repro.gateway.protocol import (
    PROTOCOL_VERSION,
    array_header,
    array_payload,
    recv_message,
    send_message,
)

clock = time.monotonic


def image_digest(dtype: str, shape, payload: bytes) -> str:
    """Digest identifying an image bitwise (dtype, shape and bytes)."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(f"{np.dtype(dtype).str}{tuple(shape)}".encode())
    digest.update(payload)
    return digest.hexdigest()


def array_digest(image: np.ndarray) -> str:
    """:func:`image_digest` of an in-memory array."""
    image = np.ascontiguousarray(image)
    return image_digest(image.dtype.str, image.shape, image.tobytes())


@dataclass
class Sent:
    """One frame sent by the generator and what became of it.

    ``cpu`` is the process's CPU time when the answer arrived and
    ``loadgen_cpu`` that of the generator's own thread, so that their
    difference is the CPU the program spent.
    """

    session: int
    index: int
    seq: int
    scheduled: float
    sent: float
    received: float | None = None
    cpu: float | None = None
    loadgen_cpu: float | None = None
    digest: str | None = None
    rejected: str | None = None

    @property
    def latency(self) -> float | None:
        """Seconds from the scheduled send to the received image."""
        if self.received is None or self.digest is None:
            return None
        return self.received - self.scheduled


class WireSession:
    """One gateway session over a blocking socket."""

    def __init__(self, port: int, geometry: dict, session: int) -> None:
        self.session = session
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        send_message(
            self.sock,
            {"type": "hello", "v": PROTOCOL_VERSION, "geometry": geometry},
        )
        header, _ = recv_message(self.sock)
        if header.get("type") != "hello_ok":
            raise RuntimeError(f"gateway refused the session: {header}")
        self.max_inflight = int(header["max_inflight"])
        self.inflight: dict[int, Sent] = {}

    def send(self, seq: int, rf: np.ndarray, record: Sent) -> None:
        """Send frame ``seq`` and track it as in flight."""
        self.inflight[seq] = record
        record.sent = clock()
        send_message(self.sock, array_header("frame", rf, seq=seq),
                     array_payload(rf))

    def receive(self) -> Sent:
        """Read one ``result``/``reject`` and settle its frame."""
        header, payload = recv_message(self.sock)
        now = clock()
        cpu, loadgen_cpu = time.process_time(), time.thread_time()
        kind = header.get("type")
        if kind not in ("result", "reject"):
            raise RuntimeError(f"unexpected gateway message: {header}")
        record = self.inflight.pop(header["seq"])
        record.received, record.cpu, record.loadgen_cpu = (
            now, cpu, loadgen_cpu)
        if kind == "result":
            record.digest = image_digest(
                header["dtype"], header["shape"], payload
            )
        else:
            record.rejected = header.get("code", "unknown")
        return record

    def close(self) -> None:
        """Say ``bye``, drain the answer and close the socket."""
        try:
            send_message(self.sock, {"type": "bye"})
            while True:
                header, _ = recv_message(self.sock)
                if header.get("type") == "bye_ok":
                    break
        except (ConnectionError, OSError):
            pass
        finally:
            self.sock.close()


@dataclass
class Phase:
    """Everything one phase sent and received."""

    frames: list[Sent] = field(default_factory=list)
    started: float = 0.0
    stop_sending: float = 0.0
    ended: float = 0.0


class LoadGenerator:
    """Drives every session of one workload from the calling thread."""

    def __init__(self, sessions: list[WireSession], frames,
                 on_result=None) -> None:
        self.sessions = sessions
        self.frames = frames
        self.on_result = on_result
        self.selector = selectors.DefaultSelector()
        for wire in sessions:
            self.selector.register(wire.sock, selectors.EVENT_READ, wire)
        self._seq = 0

    def close(self) -> None:
        """Close every session and the selector."""
        for wire in self.sessions:
            wire.close()
        self.selector.close()

    def _send(self, wire: WireSession, index: int, scheduled: float,
              phase: Phase) -> None:
        self._seq += 1
        record = Sent(wire.session, index, self._seq, scheduled, scheduled)
        wire.send(self._seq, self.frames.rf(wire.session, index), record)
        phase.frames.append(record)

    def _pump(self, timeout: float) -> list[Sent]:
        done = []
        for key, _ in self.selector.select(max(0.0, timeout)):
            done.append(key.data.receive())
        if done and self.on_result is not None:
            self.on_result()
        return done

    def _drain(self, phase: Phase, deadline: float) -> None:
        while any(wire.inflight for wire in self.sessions):
            now = clock()
            if now > deadline:
                break
            self._pump(deadline - now)
        phase.ended = clock()

    def one_each(self, index: int, timeout_s: float) -> Phase:
        """Send frame ``index`` on every session and wait for the images."""
        phase = Phase()
        phase.started = clock()
        for wire in self.sessions:
            self._send(wire, index, clock(), phase)
        self._drain(phase, phase.started + timeout_s)
        return phase

    def closed_loop(self, seconds: float, base: int, timeout_s: float) -> Phase:
        """Keep every session's in-flight window full for ``seconds``.

        Each answer is replaced by the next frame until ``seconds`` have
        passed; then the phase drains.
        """
        phase = Phase()
        next_index = [base] * len(self.sessions)
        phase.started = clock()
        phase.stop_sending = phase.started + seconds
        for wire in self.sessions:
            for _ in range(wire.max_inflight):
                self._send(wire, next_index[wire.session], clock(), phase)
                next_index[wire.session] += 1
        deadline = phase.stop_sending + timeout_s
        while any(wire.inflight for wire in self.sessions):
            now = clock()
            if now > deadline:
                break
            for record in self._pump(deadline - now):
                if record.received <= phase.stop_sending:
                    wire = self.sessions[record.session]
                    self._send(wire, next_index[wire.session], clock(), phase)
                    next_index[wire.session] += 1
        phase.ended = clock()
        return phase

    def open_loop(self, seconds: float, rate_fps: float, base: int,
                  timeout_s: float) -> Phase:
        """Send on a fixed schedule regardless of completions.

        Sessions take turns: with ``n`` sessions each sends every
        ``n / rate_fps`` seconds, offset from the others by
        ``1 / rate_fps``.
        """
        phase = Phase()
        n_frames = int(round(seconds * rate_fps))
        n_sessions = len(self.sessions)
        phase.started = clock() + 0.05
        schedule = [
            (phase.started + slot / rate_fps, slot % n_sessions,
             base + slot // n_sessions)
            for slot in range(n_frames)
        ]
        for scheduled, session, index in schedule:
            while True:
                now = clock()
                if now >= scheduled:
                    break
                self._pump(scheduled - now)
            self._send(self.sessions[session], index, scheduled, phase)
        self._drain(phase, schedule[-1][0] + timeout_s)
        return phase
