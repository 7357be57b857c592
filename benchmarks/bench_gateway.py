"""Gateway benchmark: loopback multi-client serving vs in-process serve.

Streams one unpaced frame sequence through the same engine two ways,
with identical (bitwise-asserted) outputs:

* **in-process** — :class:`~repro.serve.ServeEngine` consuming a
  :class:`~repro.serve.ReplaySource` directly: the PR-2 serving path,
  no network.
* **gateway** — the same engine fronted by
  :class:`~repro.gateway.GatewayServer`, with ``--clients`` concurrent
  :class:`~repro.gateway.GatewayClient` sessions splitting the same
  frames over loopback TCP: every frame pays JSON+raw-bytes framing
  both ways, admission control, and the asyncio hop.

The headline metric is ``gateway_efficiency`` — gateway fps over
in-process fps.  It is machine-relative (both legs run on the same
host in the same process), so the CI trend gate
(``benchmarks/compare_bench.py``) gates it even in ``--smoke`` mode;
a collapse means the frontend started costing real throughput, not
that the runner was slow.  Loopback serialization costs a few percent
at small scale; substantially lower usually points at lost pipelining
(e.g. the client window shrank) or per-message overhead growth.

A third leg re-runs the gateway with every frame traced
(``repro.obs``, ``sample_rate=1.0``) and reports
``traced_vs_untraced`` — untraced gateway time over traced time.
``compare_bench.py`` gates that ratio with a tight 5 % budget
(:data:`~compare_bench.RATIO_TOLERANCES`): full-fidelity tracing must
stay within a few percent of free, or the "observability costs
~nothing until you turn a knob" contract in ``docs/observability.md``
is broken.  A smoke leg lasts about 0.3 s, so one scheduling hiccup
moves a single pair by 10-30 %: one warmed gateway per leg type serves
:data:`TRACE_ROUNDS` rounds, alternating which leg goes first, and the
reported ratio is the median of the rounds' ratios (the gateway times
are the medians of their legs).

Writes ``benchmarks/BENCH_gateway.json``.

Usage:
    PYTHONPATH=src python benchmarks/bench_gateway.py [--smoke]
        [--frames N] [--clients C] [--max-batch B]
"""

from __future__ import annotations

import argparse
import json
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.api import create_beamformer
from repro.gateway import GatewayClient, GatewayServer
from repro.gateway.protocol import dataset_geometry
from repro.models.registry import build_model
from repro.obs import Observability
from repro.serve import ReplaySource, ServeEngine
from repro.ultrasound import simulation_contrast, stream_gain_drift

OUT_PATH = Path(__file__).resolve().parent / "BENCH_gateway.json"

SPECS = ("das", "tiny_vbf")

#: Untraced/traced gateway leg pairs per spec, by mode: smoke legs are
#: short and noisy, so they get more rounds.
TRACE_ROUNDS = {"smoke": 30, "full": 10}


def make_beamformer(spec: str):
    model = None
    if spec not in ("das", "mvdr"):
        model = build_model("tiny_vbf", "small", seed=0)
    return create_beamformer(spec, model=model)


def make_engine(
    beamformer, max_batch: int, keep_images: bool, sample_rate: float = 0.0
):
    return ServeEngine(
        beamformer,
        max_batch=max_batch,
        n_workers=2,
        keep_images=keep_images,
        log_every_s=0,
        observability=Observability.create(sample_rate=sample_rate),
    )


def bench_inprocess(beamformer, frames, max_batch: int) -> float:
    engine = make_engine(beamformer, max_batch, keep_images=True)
    engine.serve(ReplaySource(frames[:2]))  # warm-up
    start = time.perf_counter()
    report = engine.serve(ReplaySource(frames))
    elapsed = time.perf_counter() - start
    assert report.completed == len(frames), "in-process serve lost frames"
    return elapsed


@contextmanager
def running_gateway(
    beamformer, frames, clients: int, max_batch: int, sample_rate: float
):
    """A gateway over a fresh engine, warmed up by one short session."""
    engine = make_engine(
        beamformer, max_batch, keep_images=False, sample_rate=sample_rate
    )
    with GatewayServer(
        engine,
        port=0,
        max_sessions=clients,
        max_inflight=2 * max_batch,
        feed_capacity=64,
    ) as gateway:
        # Warm-up session (plan cache, first-forward allocations).
        with GatewayClient("127.0.0.1", gateway.port) as warm:
            warm.connect(dataset_geometry(frames[0]))
            list(warm.stream([frames[0].rf, frames[1].rf]))
        yield gateway


def bench_gateway(gateway, frames, clients: int, expected) -> float:
    """Time ``clients`` concurrent sessions splitting ``frames``."""
    shares = [frames[index::clients] for index in range(clients)]
    results: list = [None] * clients
    errors: list = []
    geometry = dataset_geometry(frames[0])

    def one_session(index):
        try:
            with GatewayClient("127.0.0.1", gateway.port) as client:
                client.connect(geometry)
                results[index] = list(
                    client.stream([f.rf for f in shares[index]])
                )
        except BaseException as exc:  # surfaced after the join
            errors.append(exc)

    start = time.perf_counter()
    threads = [
        threading.Thread(target=one_session, args=(index,))
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    served = sum(len(images) for images in results)
    assert served == len(frames), "gateway lost frames"
    # Bitwise parity spot check: first frame of every session.
    for index, images in enumerate(results):
        if images:
            assert np.array_equal(images[0], expected[index]), (
                "gateway output diverged from offline beamform"
            )
    return elapsed


def bench_spec(
    spec: str, frames, clients: int, max_batch: int, rounds: int
) -> dict:
    beamformer = make_beamformer(spec)
    beamformer.beamform(frames[0])  # warm-up: plan cache, BLAS
    expected = [
        beamformer.beamform(frames[index]) for index in range(clients)
    ]
    n = len(frames)
    inprocess_s = bench_inprocess(beamformer, frames, max_batch)
    untraced: list[float] = []
    traced: list[float] = []
    with running_gateway(
        beamformer, frames, clients, max_batch, sample_rate=0.0
    ) as plain, running_gateway(
        beamformer, frames, clients, max_batch, sample_rate=1.0
    ) as full:
        legs = [(plain, untraced), (full, traced)]
        for index in range(rounds):
            for gateway, times in legs if index % 2 == 0 else legs[::-1]:
                times.append(bench_gateway(gateway, frames, clients, expected))
    ratios = [a / b for a, b in zip(untraced, traced)]
    gateway_s = statistics.median(untraced)
    traced_s = statistics.median(traced)
    row = {
        "inprocess_fps": n / inprocess_s,
        "gateway_fps": n / gateway_s,
        "gateway_traced_fps": n / traced_s,
        "gateway_efficiency": inprocess_s / gateway_s,
        "traced_vs_untraced": statistics.median(ratios),
        "traced_vs_untraced_rounds": ratios,
    }
    print(
        f"{spec:>18} | in-process {row['inprocess_fps']:6.2f} fps | "
        f"gateway({clients} clients) {row['gateway_fps']:6.2f} fps "
        f"({row['gateway_efficiency']:.2f}x) | traced "
        f"{row['gateway_traced_fps']:6.2f} fps "
        f"({row['traced_vs_untraced']:.3f}x)"
    )
    return row


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short CI run: fewer frames, DAS only",
    )
    parser.add_argument("--frames", type=int, default=None)
    parser.add_argument("--clients", type=int, default=None)
    parser.add_argument("--max-batch", type=int, default=4)
    args = parser.parse_args(argv)
    n_frames = args.frames or (8 if args.smoke else 48)
    clients = args.clients or (2 if args.smoke else 4)
    specs = ("das",) if args.smoke else SPECS

    base = simulation_contrast()
    frames = list(stream_gain_drift(base, n_frames, seed=0))

    mode = "smoke" if args.smoke else "full"
    results = {
        spec: bench_spec(
            spec, frames, clients, args.max_batch, TRACE_ROUNDS[mode]
        )
        for spec in specs
    }

    payload = {
        "bench": "gateway_throughput",
        "mode": mode,
        "n_frames": n_frames,
        "clients": clients,
        "max_batch": args.max_batch,
        "grid_shape": list(base.grid.shape),
        "n_elements": base.probe.n_elements,
        "results": results,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"-> {OUT_PATH}")
    return payload


if __name__ == "__main__":
    main()
