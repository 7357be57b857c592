"""Gateway round trip: serve beamforming over TCP, stream frames, read stats.

Spins up a :class:`~repro.gateway.GatewayServer` on an ephemeral
loopback port (fronting a micro-batched DAS
:class:`~repro.serve.ServeEngine`), streams a handful of phantom frames
from a :class:`~repro.serve.ReplaySource` through two concurrent
:class:`~repro.gateway.GatewayClient` sessions, verifies the returned
IQ images are bitwise identical to offline ``beamform``, and prints
the gateway's telemetry snapshot.

It then opens a third, *observer* session (``connect(None)`` — no
geometry, exempt from the session cap) and scrapes the ``metrics``
verb the way ``python -m repro.obs metrics`` would: the Prometheus
payload is validated with :func:`repro.obs.validate_exposition`
(parses, no NaN samples, every expected family present) and one
completed frame trace is rendered.  CI runs this example in the
gateway job, so a broken exposition fails the build.

This is the in-process miniature of the real deployment shape — the
server side is exactly what ``python -m repro.gateway --port 7355``
runs, and the client side works unchanged against a remote host.

Usage:
    PYTHONPATH=src python examples/gateway_client.py [n_frames]
"""

import json
import sys
import threading

import numpy as np

from repro.api import create_beamformer
from repro.gateway import GatewayClient, GatewayServer
from repro.gateway.protocol import dataset_geometry
from repro.obs import Observability, render_trace, validate_exposition
from repro.serve import ReplaySource, ServeEngine
from repro.ultrasound import simulation_contrast, stream_gain_drift

#: Metric families the live scrape must expose — the serving-path and
#: gateway-path registrations plus the tracer's lifecycle counter.
#: (``repro_kernel_seconds`` is absent here: kernel profiling is a
#: separate opt-in, exercised by ``--profile-kernels``.)
EXPECTED_FAMILIES = (
    "repro_serve_frames_total",
    "repro_serve_stage_seconds",
    "repro_serve_batch_size",
    "repro_serve_queue_depth",
    "repro_gateway_sessions_total",
    "repro_gateway_frames_total",
    "repro_gateway_results_total",
    "repro_traces_total",
)


def run_session(port: int, dataset, frames, results, index) -> None:
    """One client session: connect, stream, collect images."""
    with GatewayClient("127.0.0.1", port) as client:
        client.connect(dataset_geometry(dataset))
        results[index] = list(
            client.stream(frame.rf for frame in frames)
        )


def main(n_frames: int = 8) -> None:
    print("Simulating the in-silico contrast preset...")
    dataset = simulation_contrast()
    frames = list(
        ReplaySource(list(stream_gain_drift(dataset, n_frames, seed=7)))
    )
    das = create_beamformer("das")

    print("Starting a DAS gateway on an ephemeral port...")
    engine = ServeEngine(
        das,
        max_batch=4,
        keep_images=False,  # the gateway retains nothing per frame
        log_every_s=0,
        # Trace every frame so the observer scrape below has complete
        # span trees to show; production defaults to sampling off.
        observability=Observability.create(sample_rate=1.0),
    )
    with GatewayServer(engine, port=0, max_sessions=4) as gateway:
        print(f"  listening on 127.0.0.1:{gateway.port}")
        shares = [frames[0::2], frames[1::2]]
        results = [None, None]
        sessions = [
            threading.Thread(
                target=run_session,
                args=(gateway.port, dataset, shares[i], results, i),
            )
            for i in range(2)
        ]
        for thread in sessions:
            thread.start()
        for thread in sessions:
            thread.join()

        print(
            f"  streamed {sum(len(r) for r in results)} frames over "
            f"{len(sessions)} concurrent sessions"
        )
        for share, images in zip(shares, results):
            for frame, image in zip(share, images):
                assert np.array_equal(image, das.beamform(frame)), (
                    "gateway image diverged from offline beamform"
                )
        print("  bitwise parity with offline beamform: OK")

        print("Scraping metrics over an observer session...")
        with GatewayClient("127.0.0.1", gateway.port) as observer:
            observer.connect(None)  # observer: no geometry, no frames
            scrape = observer.metrics()
            traces = observer.traces(n=4)
        validate_exposition(
            scrape["prometheus"], required=EXPECTED_FAMILIES
        )
        print(
            f"  Prometheus exposition OK: "
            f"{len(scrape['prometheus'])} bytes, "
            f"{len(scrape['json'])} metric families, no NaN samples"
        )
        assert traces, "tracing at sample_rate=1.0 produced no traces"
        print("  one completed frame trace:")
        for line in render_trace(traces[-1]).splitlines():
            print(f"    {line}")

        stats = gateway.stats()

    engine_stats = stats["engine"]
    summary = {
        "frames_done": engine_stats["frames_done"],
        "throughput_frames_per_s": engine_stats[
            "throughput_frames_per_s"
        ],
        "total_p95_ms": engine_stats["stages"]["total"].get("p95_ms"),
        "plan_cache_hit_rate": engine_stats["plan_cache"]["hit_rate"],
        "gateway": {
            key: stats["gateway"][key]
            for key in (
                "sessions_opened",
                "frames_admitted",
                "results_delivered",
                "frames_rejected",
            )
        },
    }
    print("Telemetry snapshot:")
    print(json.dumps(summary, indent=2))
    print("Done.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8)
