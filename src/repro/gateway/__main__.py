"""CLI for the gateway: serve beamforming over TCP.

Examples::

    # DAS gateway on port 7355, one worker thread
    PYTHONPATH=src python -m repro.gateway --port 7355

    # Untrained Tiny-VBF over a 2-worker engine
    PYTHONPATH=src python -m repro.gateway --port 7355 \\
        --beamformer tiny_vbf --untrained --workers 2

    # Loopback smoke: pick an ephemeral port, print it, serve
    PYTHONPATH=src python -m repro.gateway --port 0

The server runs until interrupted (Ctrl-C / SIGTERM), then drains:
admitted frames complete, results are delivered, sessions close.  The
final telemetry snapshot is printed as JSON on stdout; progress log
lines go to stderr via the ``repro.gateway`` logger.

The same gateway can be started from the serve CLI with
``python -m repro.serve --gateway PORT`` (sharing all its engine
flags); this entry point just adds the gateway-specific knobs.
"""

from __future__ import annotations

import argparse
import json
import logging
import signal
import sys
import threading

from repro.gateway.server import GatewayServer
from repro.serve.__main__ import (
    add_beamformer_args,
    add_control_args,
    add_engine_args,
    add_gateway_args,
    add_obs_args,
    make_beamformer,
    make_controller,
    make_observability,
)
from repro.serve.engine import ServeEngine


def build_parser() -> argparse.ArgumentParser:
    """The gateway CLI: the serve engine flags plus network knobs."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.gateway",
        description=(
            "Serve beamforming over TCP: many client sessions "
            "multiplexed onto one micro-batching engine."
        ),
    )
    add_beamformer_args(parser)
    add_engine_args(parser)
    add_gateway_args(parser)
    add_control_args(parser)
    add_obs_args(parser)
    parser.add_argument(
        "--port",
        type=int,
        default=7355,
        help="bind port (0 picks an ephemeral port, printed on start)",
    )
    return parser


def make_engine(args: argparse.Namespace):
    """Build the serving engine the gateway fronts (no image retention).

    The engine carries the CLI's :class:`repro.obs.Observability`
    bundle; :class:`GatewayServer` adopts it from ``engine.obs``, so
    one registry/tracer/event-log spans gateway and engine.
    """
    obs = make_observability(args)
    if args.profile_kernels:
        from repro.obs.profile import enable_kernel_profiling

        enable_kernel_profiling(obs.metrics, backend=args.backend)
    return ServeEngine(
        make_beamformer(args),
        max_batch=args.max_batch,
        queue_capacity=args.queue_capacity,
        backpressure="block",
        n_workers=args.workers,
        log_every_s=args.log_every,
        keep_images=False,
        observability=obs,
    )


def run_gateway(args: argparse.Namespace) -> int:
    """Start a gateway from parsed CLI args; block until interrupted.

    Both SIGINT (Ctrl-C) and SIGTERM (container/systemd stop) trigger
    the graceful drain.
    """
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(asctime)s %(name)s: %(message)s",
    )

    if args.backpressure != "block":
        print(
            "gateway mode requires --backpressure block: loss is "
            "applied at admission via explicit rejects, never by "
            "silent engine-side drops",
            file=sys.stderr,
        )
        return 2

    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)
    engine = make_engine(args)
    server = GatewayServer(
        engine,
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        max_inflight=args.max_inflight,
        feed_capacity=args.feed_capacity,
    )
    # The gateway recreates its telemetry per start(); a callable keeps
    # the controller reading the live instance.
    controller = make_controller(
        args,
        lambda: server.telemetry,
        engine=engine,
        gateway=server,
        observability=engine.obs,
    )
    try:
        server.start()
        if controller is not None:
            controller.start()
            print(
                f"control loop on: SLO p99 <= {args.slo_p99:g}s, "
                f"tick {args.control_interval:g}s"
                + (", autoscale" if args.autoscale else ""),
                file=sys.stderr,
                flush=True,
            )
        print(
            f"gateway ready on {args.host}:{server.port}",
            file=sys.stderr,
            flush=True,
        )
        try:
            threading.Event().wait()  # serve until interrupted
        except KeyboardInterrupt:
            print("draining...", file=sys.stderr, flush=True)
    except KeyboardInterrupt:
        # A signal that landed outside the wait (startup race) or a
        # second interrupt during the drain; fall through — the
        # finally still drains whatever was started.
        pass
    finally:
        if controller is not None:
            controller.stop()
        server.stop()  # idempotent; no-op if start never completed
    payload = server.stats()
    if controller is not None:
        payload["control"] = controller.status()
    print(json.dumps(payload, indent=2))  # repro: noqa[RA005] -- operator-facing CLI stats, not wire data
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro.gateway``."""
    return run_gateway(build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
