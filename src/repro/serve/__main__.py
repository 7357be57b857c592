"""CLI for the streaming beamforming engine.

Examples::

    # 32 replayed frames through DAS, micro-batched 4-deep
    PYTHONPATH=src python -m repro.serve --beamformer das --frames 32

    # Simulated live probe at 5 fps through an untrained Tiny-VBF
    PYTHONPATH=src python -m repro.serve --beamformer tiny_vbf \\
        --untrained --source probe --fps 5 --frames 20

    # Quantized datapath, lossy backpressure, 2 workers
    PYTHONPATH=src python -m repro.serve --beamformer "tiny_vbf@20 bits" \\
        --untrained --backpressure drop_oldest --workers 2

    # DAS on the float32 fast backend (see repro.backend)
    PYTHONPATH=src python -m repro.serve --beamformer das \\
        --backend numpy-fast --frames 32

    # Serve the same engine over TCP instead of a local source
    PYTHONPATH=src python -m repro.serve --beamformer das --gateway 7355

Prints the final telemetry dict as JSON on stdout; progress log lines go
to stderr via the ``repro.serve`` logger.  With ``--gateway PORT`` the
source flags are ignored and the engine fronts a network gateway
(:mod:`repro.gateway`) until interrupted.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from repro.api import create_beamformer, parse_spec
from repro.backend import available_backends
from repro.serve.engine import ServeEngine
from repro.serve.queues import BACKPRESSURE_POLICIES
from repro.serve.sources import ProbeSource, ReplaySource
from repro.ultrasound import (
    phantom_contrast,
    phantom_resolution,
    simulation_contrast,
    simulation_resolution,
    stream_gain_drift,
)

PRESETS = {
    "simulation_contrast": simulation_contrast,
    "simulation_resolution": simulation_resolution,
    "phantom_contrast": phantom_contrast,
    "phantom_resolution": phantom_resolution,
}


def add_beamformer_args(parser: argparse.ArgumentParser) -> None:
    """Add the beamformer-selection flags (shared with the gateway CLI)."""
    parser.add_argument(
        "--beamformer",
        default="das",
        help="beamformer spec for repro.api.create_beamformer "
        "(das, mvdr, tiny_vbf, 'tiny_vbf@20 bits', ...)",
    )
    parser.add_argument(
        "--untrained",
        action="store_true",
        help="wrap a freshly initialized model instead of the weight "
        "cache (learned specs only; skips training on first use)",
    )
    parser.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help="compute backend bound to the beamformer (default: the "
        "process default — REPRO_BACKEND or 'numpy')",
    )
    parser.add_argument(
        "--scale", choices=("small", "paper"), default="small"
    )
    parser.add_argument("--seed", type=int, default=0)


def add_engine_args(parser: argparse.ArgumentParser) -> None:
    """Add the engine-configuration flags (shared with the gateway CLI)."""
    parser.add_argument(
        "--max-batch",
        type=int,
        default=4,
        help="cap on the same-geometry frames a worker takes as one "
        "batch",
    )
    parser.add_argument("--queue-capacity", type=int, default=64)
    parser.add_argument(
        "--backpressure",
        choices=BACKPRESSURE_POLICIES,
        default="block",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="beamforming worker threads",
    )
    parser.add_argument(
        "--log-every",
        type=float,
        default=5.0,
        help="seconds between telemetry log lines (0 disables)",
    )


def add_source_args(parser: argparse.ArgumentParser) -> None:
    """Add the frame-source flags (local-run mode only)."""
    parser.add_argument(
        "--source",
        choices=("replay", "probe"),
        default="replay",
        help="replay: gain-perturbed copies of one preset acquisition; "
        "probe: re-simulated drifting scene per frame",
    )
    parser.add_argument(
        "--preset",
        choices=tuple(PRESETS),
        default="simulation_contrast",
        help="base acquisition preset",
    )
    parser.add_argument("--frames", type=int, default=16,
                        help="stream length")
    parser.add_argument(
        "--fps",
        type=float,
        default=0.0,
        help="source frame rate; 0 streams unpaced",
    )
    parser.add_argument(
        "--jitter-ms",
        type=float,
        default=0.0,
        help="Gaussian frame-interval jitter (paced sources)",
    )
    parser.add_argument(
        "--drift-um",
        type=float,
        default=50.0,
        help="probe source: per-frame scatterer drift step (microns)",
    )


def add_obs_args(parser: argparse.ArgumentParser) -> None:
    """Add the observability flags (shared with the gateway CLI)."""
    parser.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        metavar="RATE",
        help="fraction of frames to trace end to end (0 disables "
        "tracing entirely, 1 traces every frame; see repro.obs)",
    )
    parser.add_argument(
        "--profile-kernels",
        action="store_true",
        help="time every dispatched backend kernel into the "
        "repro_kernel_seconds histogram (adds a per-call "
        "clock read; off by default)",
    )
    parser.add_argument(
        "--event-log",
        default=None,
        metavar="PATH",
        help="append lifecycle events (session admit, worker add/"
        "retire, drain, ...) to this JSON-lines file",
    )


def add_control_args(parser: argparse.ArgumentParser) -> None:
    """Add the control-loop flags (shared with the gateway CLI)."""
    parser.add_argument(
        "--slo-p99",
        type=float,
        default=None,
        metavar="SECONDS",
        help="enable the telemetry-driven control loop with this p99 "
        "end-to-end latency objective (seconds); the controller "
        "steers max-batch (and admission/workers where applicable) "
        "toward it — see docs/autotuning.md",
    )
    parser.add_argument(
        "--control-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="control-loop tick period (requires --slo-p99)",
    )
    parser.add_argument(
        "--autoscale",
        action="store_true",
        help="let the control loop add/retire worker threads at "
        "runtime (requires --slo-p99)",
    )


def make_controller(
    args: argparse.Namespace,
    telemetry,
    engine=None,
    gateway=None,
    observability=None,
):
    """Build the :class:`~repro.serve.control.ServoController` for the
    CLI flags, or ``None`` when ``--slo-p99`` is absent."""
    if args.slo_p99 is None:
        return None
    from repro.serve.control import SLO, ServoController

    return ServoController(
        SLO(p99_latency_s=args.slo_p99),
        telemetry,
        engine=engine,
        gateway=gateway,
        autoscale=args.autoscale,
        interval_s=args.control_interval,
        observability=observability,
    )


def make_observability(args: argparse.Namespace):
    """Build the :class:`repro.obs.Observability` bundle for the CLI flags."""
    from repro.obs import Observability

    return Observability.create(
        sample_rate=args.trace_sample_rate,
        event_path=args.event_log,
    )


def add_gateway_args(parser: argparse.ArgumentParser) -> None:
    """Add the gateway network knobs (shared with the gateway CLI)."""
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="gateway mode only: bind address",
    )
    parser.add_argument(
        "--max-sessions",
        type=int,
        default=8,
        help="gateway mode only: concurrent-session admission cap",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="gateway mode only: per-session in-flight frame credit",
    )
    parser.add_argument(
        "--feed-capacity",
        type=int,
        default=64,
        help="gateway mode only: gateway feed-queue bound (frames "
        "beyond it are rejected 'overloaded')",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description=(
            "Stream simulated plane-wave frames through a beamformer "
            "with geometry-aware micro-batching."
        ),
    )
    add_beamformer_args(parser)
    add_source_args(parser)
    add_engine_args(parser)
    add_control_args(parser)
    add_obs_args(parser)
    parser.add_argument(
        "--gateway",
        type=int,
        default=None,
        metavar="PORT",
        help="serve the engine over TCP on this port instead of "
        "running a local source (see repro.gateway; 0 picks an "
        "ephemeral port; source flags are ignored)",
    )
    add_gateway_args(parser)
    return parser


def make_beamformer(args: argparse.Namespace):
    """Build the beamformer the CLI flags describe."""
    model = None
    if args.untrained:
        name, _ = parse_spec(args.beamformer)
        if name not in ("das", "mvdr"):
            from repro.models.registry import build_model

            model = build_model(name, args.scale, seed=args.seed)
    return create_beamformer(
        args.beamformer,
        scale=args.scale,
        seed=args.seed,
        model=model,
        backend=args.backend,
    )


def make_source(args: argparse.Namespace):
    """Build the frame source the CLI flags describe."""
    base = PRESETS[args.preset](scale=args.scale)
    fps = args.fps if args.fps > 0 else None
    jitter_s = args.jitter_ms / 1e3
    if args.source == "probe":
        return ProbeSource(
            base,
            n_frames=args.frames,
            fps=fps,
            jitter_s=jitter_s,
            drift_sigma_m=args.drift_um * 1e-6,
            seed=args.seed,
        )
    frames = list(
        stream_gain_drift(base, args.frames, seed=args.seed)
    )
    return ReplaySource(
        frames, fps=fps, jitter_s=jitter_s, seed=args.seed
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro.serve``."""
    args = build_parser().parse_args(argv)
    if args.gateway is not None:
        from repro.gateway.__main__ import run_gateway

        args.port = args.gateway
        return run_gateway(args)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(asctime)s %(name)s: %(message)s",
    )
    obs = make_observability(args)
    if args.profile_kernels:
        # Wrap the registered backend *before* the beamformer resolves
        # it, so every kernel the workers dispatch is timed.
        from repro.obs.profile import enable_kernel_profiling

        enable_kernel_profiling(obs.metrics, backend=args.backend)
    beamformer = make_beamformer(args)
    source = make_source(args)
    engine = ServeEngine(
        beamformer,
        max_batch=args.max_batch,
        queue_capacity=args.queue_capacity,
        backpressure=args.backpressure,
        n_workers=args.workers,
        log_every_s=args.log_every,
        observability=obs,
    )
    telemetry = None
    controller = None
    if args.slo_p99 is not None:
        from repro.serve.telemetry import ServeTelemetry

        telemetry = ServeTelemetry(
            clock=engine.clock, metrics=obs.metrics
        )
        controller = make_controller(
            args, telemetry, engine=engine, observability=obs
        )
        controller.start()
    try:
        report = engine.serve(source, telemetry=telemetry)
    finally:
        if controller is not None:
            controller.stop()
    payload = {
        "beamformer": beamformer.describe(),
        "workers": args.workers,
        "source": args.source,
        "preset": args.preset,
        "frames": args.frames,
        "completed": report.completed,
        "dropped": report.dropped,
        "stats": report.stats,
        "control": (
            controller.status() if controller is not None else None
        ),
    }
    print(json.dumps(payload, indent=2))  # repro: noqa[RA005] -- operator-facing CLI report, not wire data
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
