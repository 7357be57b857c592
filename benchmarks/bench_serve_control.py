"""Control-loop soak: static admission config vs the telemetry servo.

Drives a *traffic ramp* — client frame rate climbing linearly past the
single-worker throughput of an untrained ``tiny_vbf`` — at a loopback
gateway, twice:

* **static** — the gateway keeps its generous boot-time admission
  credit (``max_inflight=48``, the "never reject a customer" config).
  Once the ramp passes what the engine can serve, every credit fills
  with a queued frame and the end-to-end p99 latency climbs toward
  ``credit / throughput`` — textbook bufferbloat, hidden behind a
  100 % admission rate.
* **controlled** — the *same* boot config, plus a
  :class:`repro.serve.control.ServoController` enforcing an
  :class:`~repro.serve.control.SLO`.  Sustained breach windows make
  the admission axis halve the in-flight credit
  (:meth:`~repro.gateway.server.GatewayServer.set_admission`); excess
  frames are rejected *explicitly* at the edge (``inflight_cap``)
  and the frames that are admitted keep a shallow queue — the p99 is
  held near the SLO at the cost of a visible reject count.

The headline metric is ``controlled_vs_static_p99`` — static-leg p99
over controlled-leg p99, both read from the same engine telemetry.
Both legs run in one process on one host, so machine speed cancels and
``compare_bench`` gates the ratio (``RATIO_TOLERANCES``) in both full
and smoke modes; absolute p99s are reported under ``*_latency_ms``
keys, which the gate deliberately ignores.

Writes ``benchmarks/BENCH_serve_control.json``.  In full mode the run
also fails outright if the ratio drops below ``ratio_floor`` — the
controller must beat the static config severalfold on this traffic
shape or it is not earning its keep.

Usage:
    PYTHONPATH=src python benchmarks/bench_serve_control.py [--smoke]
        [--frames N] [--fps-start F] [--fps-end F]
"""

from __future__ import annotations

import argparse
import json
import time
from collections import deque
from pathlib import Path

from repro.api import create_beamformer
from repro.gateway import GatewayClient, GatewayRejected, GatewayServer
from repro.gateway.protocol import dataset_geometry
from repro.models.registry import build_model
from repro.serve import ServeEngine
from repro.serve.control import SLO, ControlBounds, ServoController
from repro.ultrasound import simulation_contrast, stream_gain_drift

OUT_PATH = Path(__file__).resolve().parent / "BENCH_serve_control.json"

#: Full-mode acceptance floor on ``controlled_vs_static_p99``.
RATIO_FLOOR = 1.5

#: The static misconfiguration under test: an in-flight credit deep
#: enough to hide seconds of queueing behind a 100 % admission rate.
BOOT_INFLIGHT = 48


def make_engine() -> ServeEngine:
    """One leg's engine: untrained tiny_vbf, single worker."""
    model = build_model("tiny_vbf", "small", seed=0)
    beamformer = create_beamformer("tiny_vbf", model=model)
    beamformer.beamform(simulation_contrast())  # warm plan cache + BLAS
    return ServeEngine(
        beamformer,
        max_batch=2,
        queue_capacity=64,
        backpressure="block",
        n_workers=1,
        keep_images=False,
        log_every_s=0.0,
    )


def run_leg(
    frames,
    fps_start: float,
    fps_end: float,
    slo: SLO,
    controlled: bool,
    interval_s: float,
) -> dict:
    engine = make_engine()
    gateway = GatewayServer(
        engine,
        port=0,
        max_sessions=1,
        max_inflight=BOOT_INFLIGHT,
        feed_capacity=64,
    )
    controller = None
    served = rejected = 0
    with gateway:
        if controlled:
            # The gateway recreates its telemetry per start(); the
            # callable keeps the controller on the live instance.
            controller = ServoController(
                slo,
                lambda: gateway.telemetry,
                engine=engine,
                gateway=gateway,
                # patience=1: shed on every breached window.  Under a
                # fast ramp every halving round the controller waits
                # out admits frames at that round's still-too-deep
                # queue, and those frames *are* the p99 tail — rejects
                # are cheap, queued seconds are not.  Restores stay
                # slow (~1/s via the cooldown): re-admitting as fast
                # as shedding would just rebuild the queue.
                bounds=ControlBounds(
                    max_batch=engine.max_batch,
                    patience=1,
                    cooldown_ticks=max(5, round(1.0 / interval_s)),
                ),
                interval_s=interval_s,
            )
            controller.start()
        try:
            with GatewayClient("127.0.0.1", gateway.port) as client:
                client.connect(dataset_geometry(frames[0]))
                # Open-loop producer: submit at the ramp rate no
                # matter what, collect whatever results have already
                # arrived (``poll``), and only block for the leftovers
                # after the last frame.  The server's admission credit
                # is then the *only* thing bounding how deep the
                # engine queue can get — which is exactly the knob the
                # two legs differ on.
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

                n = max(len(frames) - 1, 1)
                start = time.perf_counter()
                for index, frame in enumerate(frames):
                    fps = fps_start + (fps_end - fps_start) * (
                        index / n
                    )
                    time.sleep(1.0 / fps)
                    harvest()
                    pending.append(client.submit(frame.rf))
                harvest(everything=True)
                elapsed = time.perf_counter() - start
                stats = gateway.stats()
        finally:
            if controller is not None:
                controller.stop()

    assert served + rejected == len(frames), "client lost frames"
    if not controlled:
        assert rejected == 0, "static leg should admit everything"

    total = stats["engine"]["stages"]["total"]
    row = {
        "served_fps": served / elapsed,
        "admitted": served,
        "rejected": rejected,
        "p50_latency_ms": total.get("p50_ms"),
        "p99_latency_ms": total.get("p99_ms"),
        "slo_breached": total.get("p99_ms", 0.0)
        > slo.p99_latency_s * 1e3,
    }
    if controller is not None:
        status = controller.status()
        row["control"] = {
            "ticks": status["ticks"],
            "breach_ticks": status["breaches"],
            "n_actions": len(status["actions"]),
            "final_max_inflight": gateway.max_inflight,
        }
    return row


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short CI run: fewer frames, no ratio floor",
    )
    parser.add_argument("--frames", type=int, default=None)
    parser.add_argument("--fps-start", type=float, default=6.0)
    parser.add_argument("--fps-end", type=float, default=30.0)
    parser.add_argument("--slo-p99", type=float, default=0.5,
                        help="SLO p99 ceiling in seconds")
    args = parser.parse_args(argv)
    # Full mode is sized so the static leg's peak backlog stays inside
    # its 48-credit budget: every frame must be admitted there, or the
    # comparison would be shedding-vs-shedding.
    n_frames = args.frames or (50 if args.smoke else 90)
    interval_s = 0.05 if args.smoke else 0.1
    # Queue depth is the *leading* breach signal here: completed-frame
    # latency only breaches after the backlog has already formed, but
    # the gateway's ``inflight`` depth counts every admitted frame the
    # moment it is admitted.  At ~9 frames/s service, 4 in flight is
    # worth ~0.45 s of waiting — depth > 4 fires while the backlog is
    # still shallow enough for shedding to protect the tail (every
    # frame queued pre-shed is un-sheddable p99 damage).
    slo = SLO(p99_latency_s=args.slo_p99, max_queue_depth=4)

    base = simulation_contrast()
    frames = list(stream_gain_drift(base, n_frames, seed=0))

    results = {}
    for leg in ("static", "controlled"):
        results[leg] = run_leg(
            frames,
            args.fps_start,
            args.fps_end,
            slo,
            controlled=leg == "controlled",
            interval_s=interval_s,
        )
        row = results[leg]
        print(
            f"{leg:>10}: admitted {row['admitted']:3d} "
            f"rejected {row['rejected']:3d} | "
            f"p99 {row['p99_latency_ms']:8.1f} ms"
            + (" | SLO BREACHED" if row["slo_breached"] else "")
        )

    ratio = (
        results["static"]["p99_latency_ms"]
        / results["controlled"]["p99_latency_ms"]
    )
    results["controlled_vs_static_p99"] = ratio
    results["ratio_floor"] = RATIO_FLOOR
    print(f"controlled_vs_static_p99: {ratio:.2f}x")

    payload = {
        "bench": "serve_control",
        "mode": "smoke" if args.smoke else "full",
        "n_frames": n_frames,
        "fps_ramp": [args.fps_start, args.fps_end],
        "slo": {
            "p99_latency_ms": slo.p99_latency_s * 1e3,
            "max_queue_depth": slo.max_queue_depth,
        },
        "boot_max_inflight": BOOT_INFLIGHT,
        "grid_shape": list(base.grid.shape),
        "n_elements": base.probe.n_elements,
        "results": results,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"-> {OUT_PATH}")

    if not args.smoke and ratio < RATIO_FLOOR:
        raise SystemExit(
            f"the control loop stopped paying for itself: "
            f"controlled_vs_static_p99 {ratio:.2f} < floor "
            f"{RATIO_FLOOR}"
        )
    return payload


if __name__ == "__main__":
    main()
