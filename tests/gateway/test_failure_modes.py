"""Gateway failure modes: bad wire data, caps, disconnects, drain.

Every scenario asserts two things: the misbehaving client gets the
documented answer (or a clean close), and the server *survives* — a
fresh well-behaved session still completes afterwards.  No sleeps;
all waits are blocking reads on sockets the server is about to answer.
"""

import select
import struct
import threading

import numpy as np
import pytest

from repro.api import create_beamformer
from repro.gateway import (
    GatewayClient,
    GatewayError,
    GatewayRejected,
    GatewayServer,
)
from repro.gateway.protocol import (
    PROTOCOL_VERSION,
    dataset_geometry,
    pack_message,
    recv_message,
    send_message,
)
from repro.serve import ServeEngine

from .conftest import raw_connect


@pytest.fixture
def das_gateway(sim_contrast_dataset):
    """A running DAS gateway; yields (gateway, dataset)."""
    engine = ServeEngine(
        create_beamformer("das"),
        max_batch=4,
        keep_images=False,
        log_every_s=0,
    )
    with GatewayServer(
        engine, port=0, max_sessions=2, max_inflight=2
    ) as gateway:
        yield gateway, sim_contrast_dataset


def assert_still_serving(gateway, dataset):
    """A fresh session on ``gateway`` completes one frame correctly."""
    das = create_beamformer("das")
    with GatewayClient("127.0.0.1", gateway.port) as client:
        client.connect(dataset_geometry(dataset))
        image = client.result(client.submit(dataset.rf))
    assert np.array_equal(image, das.beamform(dataset))


class TestMalformedInput:
    def test_garbage_length_prefix(self, das_gateway):
        gateway, dataset = das_gateway
        with raw_connect(gateway.port) as sock:
            sock.sendall(b"\xff\xff\xff\xff garbage")
            header, _ = recv_message(sock)
            assert header["type"] == "error"
            assert header["code"] == "malformed"
            # Server closes after a fatal error.
            assert sock.recv(1) == b""
        assert_still_serving(gateway, dataset)

    def test_unparseable_header(self, das_gateway):
        gateway, dataset = das_gateway
        blob = b"this is not json at all"
        with raw_connect(gateway.port) as sock:
            sock.sendall(struct.pack("!I", len(blob)) + blob)
            header, _ = recv_message(sock)
            assert header["type"] == "error"
            assert header["code"] == "malformed"
        assert_still_serving(gateway, dataset)

    def test_truncated_header_then_disconnect(self, das_gateway):
        gateway, dataset = das_gateway
        with raw_connect(gateway.port) as sock:
            # Promise a 100-byte header, deliver 10, vanish.
            sock.sendall(struct.pack("!I", 100) + b"0123456789")
        assert_still_serving(gateway, dataset)

    def test_non_hello_first_message(self, das_gateway):
        gateway, dataset = das_gateway
        with raw_connect(gateway.port) as sock:
            send_message(sock, {"type": "stats"})
            header, _ = recv_message(sock)
            assert header["type"] == "error"
            assert header["code"] == "malformed"
        assert_still_serving(gateway, dataset)


class TestHandshakeRefusals:
    def test_protocol_version_mismatch(self, das_gateway):
        gateway, dataset = das_gateway
        with raw_connect(gateway.port) as sock:
            send_message(
                sock,
                {
                    "type": "hello",
                    "v": PROTOCOL_VERSION + 1,
                    "geometry": dataset_geometry(dataset),
                },
            )
            header, _ = recv_message(sock)
            assert header["type"] == "error"
            assert header["code"] == "version_mismatch"
            assert str(PROTOCOL_VERSION) in header["message"]
        assert_still_serving(gateway, dataset)

    def test_bad_geometry(self, das_gateway):
        gateway, dataset = das_gateway
        with raw_connect(gateway.port) as sock:
            send_message(
                sock,
                {
                    "type": "hello",
                    "v": PROTOCOL_VERSION,
                    "geometry": {"probe": {"n_elements": -3}},
                },
            )
            header, _ = recv_message(sock)
            assert header["type"] == "error"
            assert header["code"] == "bad_geometry"
        assert_still_serving(gateway, dataset)

    def test_session_cap(self, das_gateway):
        gateway, dataset = das_gateway
        geometry = dataset_geometry(dataset)
        first = GatewayClient("127.0.0.1", gateway.port)
        second = GatewayClient("127.0.0.1", gateway.port)
        third = GatewayClient("127.0.0.1", gateway.port)
        try:
            first.connect(geometry)
            second.connect(geometry)  # cap is 2
            with pytest.raises(GatewayError) as excinfo:
                third.connect(geometry)
            assert excinfo.value.code == "session_cap"
        finally:
            first.close()
            second.close()
        # Closed sessions free their slots.
        assert_still_serving(gateway, dataset)


class TestFrameRejects:
    def test_inflight_cap_explicit_reject(
        self, sim_contrast_dataset, gated_beamformer
    ):
        engine = ServeEngine(
            gated_beamformer,
            max_batch=4,
            log_every_s=0,
        )
        dataset = sim_contrast_dataset
        with GatewayServer(
            engine, port=0, max_inflight=2
        ) as gateway:
            with GatewayClient("127.0.0.1", gateway.port) as client:
                client.connect(dataset_geometry(dataset))
                assert client.max_inflight == 2
                first = client.submit(dataset.rf)
                second = client.submit(dataset.rf)
                third = client.submit(dataset.rf)
                # The compute gate is shut, so 1 and 2 are pinned in
                # flight and 3 must be rejected — explicitly, not
                # buffered.
                with pytest.raises(GatewayRejected) as excinfo:
                    client.result(third)
                assert excinfo.value.code == "inflight_cap"
                gated_beamformer.release()
                for seq in (first, second):
                    assert client.result(seq).shape == (
                        dataset.grid.nz,
                        dataset.grid.nx,
                    )

    def test_geometry_violation_is_fatal(self, das_gateway):
        gateway, dataset = das_gateway
        with GatewayClient("127.0.0.1", gateway.port) as client:
            client.connect(dataset_geometry(dataset))
            wrong = np.zeros(
                (dataset.rf.shape[0] // 2, dataset.rf.shape[1])
            )
            seq = client.submit(wrong)
            with pytest.raises(GatewayError) as excinfo:
                client.result(seq)
            assert excinfo.value.code == "bad_frame"
        assert_still_serving(gateway, dataset)

    def test_silent_frame_rejected_not_fatal(self, das_gateway):
        gateway, dataset = das_gateway
        with GatewayClient("127.0.0.1", gateway.port) as client:
            client.connect(dataset_geometry(dataset))
            seq = client.submit(np.zeros_like(dataset.rf))
            with pytest.raises(GatewayRejected) as excinfo:
                client.result(seq)
            assert excinfo.value.code == "bad_frame"
            # The session survives a rejected frame.
            good = client.submit(dataset.rf)
            assert client.result(good) is not None


class TestDisconnects:
    def test_disconnect_mid_frame(self, das_gateway):
        gateway, dataset = das_gateway
        header = pack_message(
            {
                "type": "hello",
                "v": PROTOCOL_VERSION,
                "geometry": dataset_geometry(dataset),
            }
        )
        with raw_connect(gateway.port) as sock:
            sock.sendall(header)
            reply, _ = recv_message(sock)
            assert reply["type"] == "hello_ok"
            # Start a frame message, stop half-way through the payload.
            rf = np.asarray(dataset.rf)
            blob = pack_message(
                {
                    "type": "frame",
                    "seq": 0,
                    "shape": list(rf.shape),
                    "dtype": rf.dtype.str,
                    "nbytes": rf.nbytes,
                },
                rf.tobytes(),
            )
            sock.sendall(blob[: len(blob) // 2])
        assert_still_serving(gateway, dataset)

    def test_disconnect_with_results_in_flight_orphans_them(
        self, sim_contrast_dataset, gated_beamformer
    ):
        engine = ServeEngine(
            gated_beamformer,
            max_batch=4,
            log_every_s=0,
        )
        dataset = sim_contrast_dataset
        with GatewayServer(
            engine, port=0, max_inflight=4
        ) as gateway:
            client = GatewayClient("127.0.0.1", gateway.port)
            client.connect(dataset_geometry(dataset))
            client.submit(dataset.rf)
            client.submit(dataset.rf)
            # Confirm both frames were admitted (stats is ordered
            # behind the frames on this connection), then vanish.
            assert (
                client.stats()["gateway"]["sessions"]["1"]["frames_in"]
                == 2
            )
            client._sock.close()  # abrupt: no bye
            gated_beamformer.release()
        # Drain completed and the engine still finished both frames;
        # each result has exactly one outcome (delivered into the void
        # of a kernel buffer or counted orphaned — the disconnect race
        # decides which, conservation must hold either way).
        stats = gateway.stats()
        assert stats["engine"]["frames_done"] == 2
        assert (
            stats["gateway"]["results_delivered"]
            + stats["gateway"]["results_orphaned"]
            == 2
        )
        assert stats["gateway"]["active_sessions"] == 0


class _RaisingBeamformer:
    """Minimal beamformer whose compute always fails."""

    name = "raising"
    backend = None

    def beamform(self, dataset):
        raise RuntimeError("compute exploded")

    def beamform_batch(self, datasets):
        raise RuntimeError("compute exploded")

    def describe(self):
        return {"name": self.name}


class TestEngineFailure:
    def test_threaded_engine_failure_fails_sessions(
        self, sim_contrast_dataset
    ):
        """A beamform exception in the threaded engine must surface to
        clients instead of silently eating their admitted frames."""
        dataset = sim_contrast_dataset
        engine = ServeEngine(
            _RaisingBeamformer(),
            max_batch=1,
            log_every_s=0,
        )
        gateway = GatewayServer(engine, port=0, max_inflight=4).start()
        try:
            client = GatewayClient("127.0.0.1", gateway.port)
            client.connect(dataset_geometry(dataset))
            seq = client.submit(dataset.rf)
            with pytest.raises((GatewayError, ConnectionError, OSError)):
                client.result(seq)
            gateway._pump_thread.join(timeout=30)
            assert gateway._broken
            assert gateway.stats()["gateway"]["broken"]
        finally:
            gateway.stop()

    def test_dead_engine_refuses_new_sessions(self, sim_contrast_dataset):
        """After the shared engine dies, the gateway must stop
        admitting — not hand out hello_ok for frames it can never
        answer."""
        dataset = sim_contrast_dataset
        engine = ServeEngine(
            _RaisingBeamformer(),
            n_workers=2,
            max_batch=1,
            log_every_s=0,
        )
        gateway = GatewayServer(engine, port=0, max_inflight=4).start()
        try:
            client = GatewayClient("127.0.0.1", gateway.port)
            client.connect(dataset_geometry(dataset))
            seq = client.submit(dataset.rf)
            # The worker raises on this batch; the engine turns broken
            # and the gateway fails the session.
            with pytest.raises((GatewayError, ConnectionError, OSError)):
                client.result(seq)
            # The pump thread has observed the failure by the time the
            # session got its error/close; new sessions must now be
            # refused outright.
            gateway._pump_thread.join(timeout=30)
            assert gateway._broken
            late = GatewayClient("127.0.0.1", gateway.port)
            with pytest.raises(
                (GatewayError, ConnectionError, OSError)
            ) as excinfo:
                late.connect(dataset_geometry(dataset))
            if isinstance(excinfo.value, GatewayError):
                assert excinfo.value.code == "internal"
            assert gateway.stats()["gateway"]["broken"]
        finally:
            gateway.stop()


class TestGracefulDrain:
    def test_drain_delivers_all_inflight_frames(
        self, sim_contrast_dataset, gated_beamformer
    ):
        """stop() with frames in flight: zero loss, every answer sent."""
        engine = ServeEngine(
            gated_beamformer,
            max_batch=4,
            keep_images=False,
            log_every_s=0,
        )
        dataset = sim_contrast_dataset
        das = create_beamformer("das")
        expected = das.beamform(dataset)

        gateway = GatewayServer(
            engine, port=0, max_sessions=2, max_inflight=4
        ).start()
        clients = []
        seqs = []
        try:
            for _ in range(2):
                client = GatewayClient("127.0.0.1", gateway.port)
                client.connect(dataset_geometry(dataset))
                clients.append(client)
                seqs.append(
                    [client.submit(dataset.rf) for _ in range(3)]
                )
            # Each session's frames are admitted (its stats reply is
            # ordered behind its frames), with the compute gate shut.
            for index, client in enumerate(clients, start=1):
                sessions = client.stats()["gateway"]["sessions"]
                assert sessions[str(index)]["frames_in"] == 3

            stopper = threading.Thread(target=gateway.stop)
            stopper.start()
            gated_beamformer.release()
            # Every admitted frame must produce its result through the
            # drain — bitwise correct, no loss.
            for client, client_seqs in zip(clients, seqs):
                for seq in client_seqs:
                    assert np.array_equal(
                        client.result(seq), expected
                    )
            stopper.join()
        finally:
            for client in clients:
                client._sock and client._sock.close()

        stats = gateway.stats()
        assert stats["gateway"]["results_delivered"] == 6
        assert stats["gateway"]["results_orphaned"] == 0
        assert stats["engine"]["frames_done"] == 6

    def test_new_work_rejected_while_draining(
        self, sim_contrast_dataset, gated_beamformer
    ):
        engine = ServeEngine(
            gated_beamformer,
            max_batch=4,
            log_every_s=0,
        )
        dataset = sim_contrast_dataset
        gateway = GatewayServer(engine, port=0, max_inflight=4).start()
        client = GatewayClient("127.0.0.1", gateway.port)
        try:
            client.connect(dataset_geometry(dataset))
            seq = client.submit(dataset.rf)
            assert client.stats()["gateway"]["frames_admitted"] == 1

            stopper = threading.Thread(target=gateway.stop)
            stopper.start()
            assert gateway._drain_begun.wait(timeout=30)
            # Draining rejects new frames but still answers the old one.
            late = client.submit(dataset.rf)
            with pytest.raises(GatewayRejected) as excinfo:
                client.result(late)
            assert excinfo.value.code == "draining"
            gated_beamformer.release()
            assert client.result(seq) is not None
            stopper.join()
        finally:
            client._sock and client._sock.close()


class TestRuntimeAdmission:
    """``set_admission``: the control loop's credit shed/restore path."""

    def test_shed_inflight_credit_applies_to_open_sessions(
        self, sim_contrast_dataset, gated_beamformer
    ):
        engine = ServeEngine(
            gated_beamformer,
            max_batch=4,
            log_every_s=0,
        )
        dataset = sim_contrast_dataset
        with GatewayServer(
            engine, port=0, max_inflight=4
        ) as gateway:
            assert gateway.telemetry is not None
            with GatewayClient("127.0.0.1", gateway.port) as client:
                client.connect(dataset_geometry(dataset))
                assert client.max_inflight == 4
                first = client.submit(dataset.rf)
                # The controller sheds credit mid-session; the open
                # session's cap shrinks, it is not evicted.
                gateway.set_admission(max_inflight=1)
                assert gateway.max_inflight == 1
                second = client.submit(dataset.rf)
                with pytest.raises(GatewayRejected) as excinfo:
                    client.result(second)
                assert excinfo.value.code == "inflight_cap"
                gated_beamformer.release()
                assert client.result(first).shape == (
                    dataset.grid.nz,
                    dataset.grid.nx,
                )
                # Restoring credit re-opens the pipe for the same
                # session, again without a reconnect.
                gateway.set_admission(max_inflight=4)
                reseq = client.submit(dataset.rf)
                assert client.result(reseq) is not None

    def test_set_admission_validates(self, das_gateway):
        gateway, dataset = das_gateway
        with pytest.raises(ValueError):
            gateway.set_admission(max_inflight=0)
        with pytest.raises(ValueError):
            gateway.set_admission(max_sessions=0)
        # The rejected calls left the credits untouched.
        assert gateway.max_inflight == 2
        assert gateway.max_sessions == 2
        assert_still_serving(gateway, dataset)


class TestNonBlockingHarvest:
    """``poll``/``has_result``: reading the socket without blocking.

    An open-loop producer (``bench_serve_control``'s client) must keep
    draining deliveries between submits or the kernel socket buffers
    fill and the whole pipe deadlocks — but it cannot afford to block
    on :meth:`GatewayClient.result` for frames that are not done yet.
    """

    @staticmethod
    def _drain_until(client, seq):
        # Block on the *socket* (not on result()) until seq's outcome
        # is buffered client-side — same no-sleep style as the rest of
        # this file: every wait is a read the server is about to answer.
        while not client.has_result(seq):
            select.select([client._sock], [], [], 30.0)
            client.poll()

    def test_poll_is_nonblocking_and_surfaces_both_outcomes(
        self, sim_contrast_dataset, gated_beamformer
    ):
        engine = ServeEngine(
            gated_beamformer,
            max_batch=4,
            log_every_s=0,
        )
        with GatewayServer(
            engine, port=0, max_inflight=1, feed_capacity=8
        ) as gateway:
            with GatewayClient("127.0.0.1", gateway.port) as client:
                client.connect(dataset_geometry(sim_contrast_dataset))
                held = client.submit(sim_contrast_dataset.rf)
                # The gate is closed, so nothing has been delivered:
                # poll must return immediately and report no outcome.
                client.poll()
                assert not client.has_result(held)
                # A second frame overruns max_inflight=1; its reject
                # is an outcome too, and must be visible to
                # has_result without a blocking result() call.
                shed = client.submit(sim_contrast_dataset.rf)
                self._drain_until(client, shed)
                assert client.has_result(shed)
                assert not client.has_result(held)
                with pytest.raises(GatewayRejected) as excinfo:
                    client.result(shed)
                assert excinfo.value.code == "inflight_cap"
                gated_beamformer.release()
                self._drain_until(client, held)
                # The outcome is already buffered: result() returns
                # without touching the socket again.
                image = client.result(held)
                assert image.shape == (
                    sim_contrast_dataset.grid.nz,
                    sim_contrast_dataset.grid.nx,
                )
                # result() consumed it.
                assert not client.has_result(held)
