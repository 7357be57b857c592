"""End-to-end gateway behaviour: parity, concurrency, stats.

The acceptance test of the gateway layer lives here: concurrent
mixed-geometry client sessions streaming ≥100 frames through a
gateway-fronted two-worker :class:`~repro.serve.ServeEngine` must
receive IQ images bitwise identical to offline ``beamform`` on every
registered backend.

No test sleeps: clients block on their own sockets (event-driven
waits), and all assertions are interleaving-independent invariants.
"""

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.api import create_beamformer
from repro.backend import available_backends
from repro.gateway import GatewayClient, GatewayServer
from repro.gateway.protocol import dataset_geometry
from repro.serve import ServeEngine
from repro.ultrasound import stream_gain_drift

N_SESSIONS = 4
FRAMES_PER_SESSION = 26  # 4 x 26 = 104 >= the 100-frame acceptance bar


def session_datasets(base):
    """Four distinct acquisition geometries (distinct plan keys)."""
    return [
        replace(base, angle_rad=np.deg2rad(angle))
        for angle in (0.0, 3.0, -2.0, 5.0)
    ]


def run_sessions(port, datasets, per_session_frames):
    """Stream each session from its own thread; return images per session."""
    results = [None] * len(datasets)
    errors = []

    def one_session(index):
        try:
            with GatewayClient("127.0.0.1", port) as client:
                client.connect(dataset_geometry(datasets[index]))
                results[index] = list(
                    client.stream(
                        [f.rf for f in per_session_frames[index]]
                    )
                )
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=one_session, args=(index,))
        for index in range(len(datasets))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


class TestThreadedParity:
    def test_single_session_bitwise_parity(
        self, sim_contrast_dataset, frames
    ):
        das = create_beamformer("das")
        engine = ServeEngine(
            das,
            max_batch=4,
            keep_images=False,
            log_every_s=0,
        )
        with GatewayServer(engine, port=0) as gateway:
            with GatewayClient("127.0.0.1", gateway.port) as client:
                client.connect(dataset_geometry(sim_contrast_dataset))
                images = list(
                    client.stream([frame.rf for frame in frames])
                )
        assert len(images) == len(frames)
        for frame, image in zip(frames, images):
            assert np.array_equal(image, das.beamform(frame))

    def test_results_match_out_of_order_submission_seqs(
        self, sim_contrast_dataset, frames
    ):
        das = create_beamformer("das")
        engine = ServeEngine(
            das, max_batch=2, log_every_s=0
        )
        with GatewayServer(engine, port=0, max_inflight=8) as gateway:
            with GatewayClient("127.0.0.1", gateway.port) as client:
                client.connect(dataset_geometry(sim_contrast_dataset))
                seqs = [
                    client.submit(frame.rf, seq=100 - index)
                    for index, frame in enumerate(frames[:4])
                ]
                images = {seq: client.result(seq) for seq in seqs}
        for index, frame in enumerate(frames[:4]):
            assert np.array_equal(
                images[100 - index], das.beamform(frame)
            )


class TestConcurrentSessionsAcceptance:
    @pytest.mark.parametrize("backend", available_backends())
    def test_concurrent_sessions_bitwise_parity(
        self, sim_contrast_dataset, backend
    ):
        das = create_beamformer("das", backend=backend)
        datasets = session_datasets(sim_contrast_dataset)
        per_session = [
            list(
                stream_gain_drift(
                    dataset, FRAMES_PER_SESSION, seed=index
                )
            )
            for index, dataset in enumerate(datasets)
        ]
        engine = ServeEngine(
            das,
            n_workers=2,
            max_batch=4,
            keep_images=False,
            log_every_s=0,
        )
        with GatewayServer(
            engine, port=0, max_sessions=N_SESSIONS, max_inflight=8
        ) as gateway:
            results = run_sessions(gateway.port, datasets, per_session)
            stats = gateway.stats()

        total = N_SESSIONS * FRAMES_PER_SESSION
        assert stats["gateway"]["frames_admitted"] == total
        assert stats["gateway"]["results_delivered"] == total
        assert stats["gateway"]["frames_rejected"] == 0
        assert stats["engine"]["frames_done"] == total
        for dataset_frames, images in zip(per_session, results):
            assert len(images) == FRAMES_PER_SESSION
            for frame, image in zip(dataset_frames, images):
                assert np.array_equal(image, das.beamform(frame))


class TestStats:
    def test_stats_exposes_engine_telemetry_and_session_counters(
        self, sim_contrast_dataset, frames
    ):
        engine = ServeEngine(
            create_beamformer("das"),
            max_batch=4,
            log_every_s=0,
        )
        with GatewayServer(engine, port=0) as gateway:
            with GatewayClient("127.0.0.1", gateway.port) as client:
                client.connect(dataset_geometry(sim_contrast_dataset))
                list(client.stream([frame.rf for frame in frames[:5]]))
                stats = client.stats()
        engine_stats = stats["engine"]
        assert engine_stats["frames_done"] == 5
        assert set(engine_stats["stages"]) == {
            "queue_wait",
            "execute",
            "total",
        }
        assert engine_stats["plan_cache"]["hit_rate"] is not None
        session = stats["gateway"]["sessions"]["1"]
        assert session["frames_in"] == 5
        assert session["results_out"] == 5
        assert session["inflight"] == 0
        # JSON-serializable end to end (the wire already proved it, but
        # pin the contract for the stats consumer).
        import json

        json.dumps(stats)
