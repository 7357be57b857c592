"""Self-driving serving: a load spike, shed by the servo controller.

Runs the full control-loop stack in one process — the deployment
miniature of ``python -m repro.gateway --autoscale``:

* a single-worker :class:`~repro.serve.ServeEngine` over an untrained
  ``tiny_vbf`` model (slow on purpose: the point is saturation),
* a loopback :class:`~repro.gateway.GatewayServer` booted with a
  deliberately generous in-flight credit,
* a :class:`~repro.serve.control.ServoController` enforcing an
  :class:`~repro.serve.control.SLO` from live gateway telemetry.

The client then drives a three-phase traffic script::

    steady (under capacity) -> spike (~3x capacity) -> recovery

and prints the controller's action log.  Watch the admission axis:
during the spike the in-flight queue depth breaches the SLO, the
controller halves the gateway credit (``shed``) until arrivals are
being rejected at the edge instead of queueing, and during recovery it
restores credit one step per cooldown (``restore``) — shed fast,
restore slow, so the queue the shed drained is not instantly rebuilt.
``docs/autotuning.md`` is the operator-facing tour of the same loop.

CI runs this example (gateway job) and it asserts the story actually
happened: at least one shed during the spike, at least one restore
after it, and zero lost frames (every submission either served or
explicitly rejected).

Usage:
    PYTHONPATH=src python examples/autoscale_demo.py
"""

import json
from collections import deque

from repro.api import create_beamformer
from repro.gateway import GatewayClient, GatewayRejected, GatewayServer
from repro.gateway.protocol import dataset_geometry
from repro.models.registry import build_model
from repro.serve import ServeEngine
from repro.serve.control import SLO, ControlBounds, ServoController
from repro.ultrasound import simulation_contrast, stream_gain_drift

#: The misconfigured boot credit the controller has to walk back.
BOOT_INFLIGHT = 48

#: (name, n_frames, frames_per_second) — the scripted load.
PHASES = (
    ("steady", 8, 4.0),
    ("spike", 20, 25.0),
    ("recovery", 12, 4.0),
)


def main() -> None:
    import time

    print("Building an untrained tiny_vbf engine (1 worker)...")
    dataset = simulation_contrast()
    model = build_model("tiny_vbf", "small", seed=0)
    beamformer = create_beamformer("tiny_vbf", model=model)
    beamformer.beamform(dataset)  # warm the plan cache
    engine = ServeEngine(
        beamformer,
        max_batch=2,
        queue_capacity=64,
        backpressure="block",
        n_workers=1,
        keep_images=False,
        log_every_s=0.0,
    )

    slo = SLO(p99_latency_s=0.5, max_queue_depth=4)
    gateway = GatewayServer(
        engine,
        port=0,
        max_sessions=1,
        max_inflight=BOOT_INFLIGHT,
        feed_capacity=64,
    )
    served = rejected = 0
    with gateway:
        print(
            f"Gateway on 127.0.0.1:{gateway.port} "
            f"(boot max_inflight={BOOT_INFLIGHT}); SLO: "
            f"p99 <= {slo.p99_latency_s * 1e3:.0f} ms, "
            f"depth <= {slo.max_queue_depth}"
        )
        controller = ServoController(
            slo,
            lambda: gateway.telemetry,
            engine=engine,
            gateway=gateway,
            bounds=ControlBounds(
                max_batch=engine.max_batch,
                patience=1,
                cooldown_ticks=10,
            ),
            interval_s=0.1,
        )
        with controller:  # starts the tick thread, stops on exit
            with GatewayClient("127.0.0.1", gateway.port) as client:
                client.connect(dataset_geometry(dataset))
                pending: deque[int] = deque()

                def harvest(everything: bool = False) -> None:
                    nonlocal served, rejected
                    client.poll()
                    while pending and (
                        everything or client.has_result(pending[0])
                    ):
                        try:
                            client.result(pending.popleft())
                            served += 1
                        except GatewayRejected:
                            rejected += 1

                n_sent = 0
                for name, n_frames, fps in PHASES:
                    frames = stream_gain_drift(
                        dataset, n_frames, seed=len(name)
                    )
                    for frame in frames:
                        time.sleep(1.0 / fps)
                        harvest()
                        pending.append(client.submit(frame.rf))
                        n_sent += 1
                    print(
                        f"  [{name:>8}] sent {n_frames} frames at "
                        f"{fps:g} fps (credit now "
                        f"{gateway.max_inflight})"
                    )
                harvest(everything=True)
            status = controller.status()

    print(f"\nServed {served}, rejected {rejected} of {n_sent} frames")
    print("Controller action log:")
    t0 = min((a["at"] for a in status["actions"]), default=0.0)
    for action in status["actions"]:
        print(
            f"  t=+{action['at'] - t0:6.2f}s {action['policy']:>9}/"
            f"{action['action']:<12} -> {action['value']:g}  "
            f"({action['reason']})"
        )
    print("Final state:")
    print(json.dumps({k: status[k] for k in ("engine", "gateway")}))

    # The demo is a CI claim, not just a printout: the controller must
    # have shed during the spike and given credit back afterwards.
    assert served + rejected == n_sent, "a frame was lost"
    kinds = [a["action"] for a in status["actions"]]
    assert "shed" in kinds, "spike never triggered an admission shed"
    assert "restore" in kinds, "recovery never restored credit"
    assert gateway.max_inflight < BOOT_INFLIGHT, (
        "controller ended with the bufferbloat credit it booted with"
    )
    print("Done: shed under load, restored after — SLO loop closed.")


if __name__ == "__main__":
    main()
