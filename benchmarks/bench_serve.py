"""Serving benchmark: naive single-frame loop vs the micro-batched engine.

Simulates live traffic — a paced frame source at ``--fps`` — and serves
it two ways with identical outputs:

* **single-frame loop** — the offline API pointed at the stream: wait
  for a frame, ``beamform`` it, wait for the next.  Acquisition time and
  compute time *add* (the repo's only serving story before
  ``repro.serve``).
* **micro-batched engine** — ``ServeEngine``: ingest and compute overlap
  (the caller thread waits on the probe while workers beamform), frames
  are geometry-grouped into micro-batches over one cached ToF plan and
  stacked model forwards.  Acquisition and compute *overlap*.

An unpaced offline loop is also timed as the raw-compute reference, so
the JSON separates pipeline overlap from kernel cost.  Models run
untrained (throughput does not depend on weight values), which keeps the
bench independent of the training cache.

Writes ``benchmarks/BENCH_serve.json``.  Each result row carries its
own ``speedup_floor`` and in full mode every floored spec must clear
it or the bench exits nonzero.  The ``das`` spec carries no floor: at
the paced source rate its single-frame loop is acquisition-bound, so
overlap buys little and gating it would encode a number the engine
never promised (an earlier payload recorded a global 1.5 floor next
to a das speedup of 1.36 — contradictory on its face; only learned
specs were ever gated).

Usage:
    PYTHONPATH=src python benchmarks/bench_serve.py [--smoke]
        [--frames N] [--fps F] [--max-batch B]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.api import create_beamformer
from repro.models.registry import build_model
from repro.serve import ReplaySource, ServeEngine
from repro.ultrasound import simulation_contrast, stream_gain_drift

OUT_PATH = Path(__file__).resolve().parent / "BENCH_serve.json"

SPECS = ("das", "tiny_vbf", "tiny_vbf@20 bits")

#: Per-spec acceptance floors (served speedup over the single-frame
#: loop).  ``None`` = reported but not gated: das compute is cheap
#: enough that the paced loop is dominated by acquisition waits, which
#: micro-batching cannot overlap away.
SPEEDUP_FLOORS: dict[str, float | None] = {
    "das": None,
    "tiny_vbf": 1.5,
    "tiny_vbf@20 bits": 1.5,
}


def make_beamformer(spec: str):
    model = None
    if spec not in ("das", "mvdr"):
        model = build_model("tiny_vbf", "small", seed=0)
    return create_beamformer(spec, model=model)


def bench_offline_loop(beamformer, frames) -> float:
    """Unpaced ``beamform`` loop: raw per-frame compute cost."""
    start = time.perf_counter()
    for frame in frames:
        beamformer.beamform(frame)
    return time.perf_counter() - start


def bench_single_frame_loop(beamformer, frames, fps: float) -> float:
    """Paced source consumed synchronously: acquisition + compute add."""
    source = ReplaySource(frames, fps=fps)
    start = time.perf_counter()
    for frame in source:
        beamformer.beamform(frame)
    return time.perf_counter() - start


def bench_served(
    beamformer, frames, fps: float, max_batch: int
) -> tuple[float, dict]:
    """Paced source through the engine: acquisition and compute overlap."""
    engine = ServeEngine(
        beamformer,
        max_batch=max_batch,
        queue_capacity=64,
        backpressure="block",  # lossless: both paths serve every frame
        n_workers=1,
        log_every_s=0.0,
    )
    source = ReplaySource(frames, fps=fps)
    start = time.perf_counter()
    report = engine.serve(source)
    elapsed = time.perf_counter() - start
    assert report.completed == len(frames), "engine lost frames"
    return elapsed, report.stats


def bench_spec(
    spec: str, frames, fps: float, max_batch: int
) -> dict:
    beamformer = make_beamformer(spec)
    beamformer.beamform(frames[0])  # warm-up: plan cache, BLAS, imports
    n = len(frames)

    offline_s = bench_offline_loop(beamformer, frames)
    single_s = bench_single_frame_loop(beamformer, frames, fps)
    served_s, stats = bench_served(beamformer, frames, fps, max_batch)

    total = stats["stages"]["total"]
    return {
        "offline_fps": n / offline_s,
        "single_frame_fps": n / single_s,
        "served_fps": n / served_s,
        "speedup": single_s / served_s,
        "speedup_floor": SPEEDUP_FLOORS[spec],
        "mean_batch_size": stats["mean_batch_size"],
        "plan_cache_hit_rate": stats["plan_cache"]["hit_rate"],
        "latency_ms": {
            "p50": total.get("p50_ms"),
            "p95": total.get("p95_ms"),
            "p99": total.get("p99_ms"),
        },
    }


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short CI run: fewer frames, no speedup gate",
    )
    parser.add_argument("--frames", type=int, default=None)
    parser.add_argument("--fps", type=float, default=10.0)
    parser.add_argument("--max-batch", type=int, default=4)
    args = parser.parse_args(argv)
    n_frames = args.frames or (8 if args.smoke else 32)

    base = simulation_contrast()
    frames = list(stream_gain_drift(base, n_frames, seed=0))

    results = {}
    for spec in SPECS:
        results[spec] = bench_spec(
            spec, frames, args.fps, args.max_batch
        )
        row = results[spec]
        print(
            f"{spec:>18}: offline {row['offline_fps']:6.2f} | "
            f"single-frame loop {row['single_frame_fps']:6.2f} | "
            f"served {row['served_fps']:6.2f} frames/s | "
            f"speedup {row['speedup']:.2f}x"
        )

    payload = {
        "bench": "serve_throughput",
        "mode": "smoke" if args.smoke else "full",
        "n_frames": n_frames,
        "fps": args.fps,
        "max_batch": args.max_batch,
        "grid_shape": list(base.grid.shape),
        "n_elements": base.probe.n_elements,
        "results": results,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"-> {OUT_PATH}")

    below_floor = {
        spec: (row["speedup"], row["speedup_floor"])
        for spec, row in results.items()
        if row["speedup_floor"] is not None
        and row["speedup"] < row["speedup_floor"]
    }
    if not args.smoke and below_floor:
        raise SystemExit(
            "micro-batched serving fell below its per-spec speedup "
            f"floor (got {{spec: (speedup, floor)}} = {below_floor})"
        )
    return payload


if __name__ == "__main__":
    main()
