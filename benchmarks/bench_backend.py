"""Backend benchmark: per-backend wall time on the two hot paths.

Measures, for every registered compute backend:

* **das** — the beamforming hot path: cached-plan gather/interpolation
  plus the apodized aperture sum, on pre-computed analytic RF (the
  Hilbert transform is backend-independent preprocessing and would
  only dilute the comparison),
* **das_end_to_end** — the same through ``DasBeamformer.beamform_batch``
  including analytic-signal computation (what a serve worker pays),
* **forward** — the Tiny-VBF model forward at small scale on a
  micro-batch of frames (the learned-beamformer hot path).

Writes ``benchmarks/BENCH_backend.json`` with per-backend seconds,
frames/sec and the speedup of every backend over the ``numpy``
reference, so the acceptance bar (``numpy-fast`` >= 1.3x on DAS or
forward) is tracked across PRs.  When the compiled ``cnative`` backend
is registered (host has a C compiler), the payload also carries a
top-level ``ratios.cnative_vs_numpy_forward`` — the compiled backend's
forward speedup, gated by ``compare_bench.py`` against its committed
baseline (target: >= 5x).

Usage:
    PYTHONPATH=src python benchmarks/bench_backend.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.api import DasBeamformer
from repro.backend import available_backends, use_backend
from repro.beamform.apodization import boxcar_rx_apodization
from repro.beamform.das import das_beamform
from repro.beamform.tof import analytic_rf, clear_tof_plan_cache, \
    get_tof_plan
from repro.models.registry import build_model
from repro.ultrasound import simulation_contrast

from bench_throughput import make_frames

OUT_PATH = Path(__file__).resolve().parent / "BENCH_backend.json"


def timeit(fn, repeats: int) -> float:
    """Best-of-N wall time (the usual perf-bench convention)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_das_kernels(backend_name, frames, repeats) -> float:
    """Plan apply + apodized sum on pre-computed analytic RF."""
    base = frames[0]
    analytic = [analytic_rf(frame.rf) for frame in frames]
    plan = get_tof_plan(
        base.probe, base.grid, base.rf.shape[0],
        angle_rad=base.angle_rad,
        sound_speed_m_s=base.sound_speed_m_s,
    )
    apodization = boxcar_rx_apodization(base.probe, base.grid)

    def run():
        with use_backend(backend_name):
            for rf in analytic:
                das_beamform(plan.apply(rf), apodization)

    run()  # warm the per-plan gather tables / scratch buffers
    return timeit(run, repeats)


def bench_das_end_to_end(backend_name, frames, repeats) -> float:
    beamformer = DasBeamformer(backend=backend_name)

    def run():
        beamformer.beamform_batch(frames)

    run()
    return timeit(run, repeats)


def bench_forward(backend_name, batch, repeats) -> float:
    model = build_model("tiny_vbf", "small", seed=0)

    def run():
        with use_backend(backend_name):
            model.forward(batch, training=False)

    run()
    return timeit(run, repeats)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny workload for CI smoke runs",
    )
    args = parser.parse_args(argv)
    n_frames = 4 if args.smoke else 16
    # Best-of-5 in full mode: the forward ratio is gated and the numpy
    # numerator is the noisiest measurement on a busy host.
    repeats = 2 if args.smoke else 5
    forward_batch_size = 2 if args.smoke else 4

    base = simulation_contrast()
    frames = make_frames(base, n_frames)
    stream = np.random.default_rng(1)
    batch = stream.uniform(
        -1.0, 1.0, (forward_batch_size, 368, 64, 64)
    )

    paths = {
        "das": lambda name: bench_das_kernels(name, frames, repeats),
        "das_end_to_end": lambda name: bench_das_end_to_end(
            name, frames, repeats
        ),
        "forward": lambda name: bench_forward(name, batch, repeats),
    }
    per_path_frames = {
        "das": n_frames,
        "das_end_to_end": n_frames,
        "forward": forward_batch_size,
    }

    results: dict = {
        "config": {
            "n_frames": n_frames,
            "repeats": repeats,
            "forward_batch": forward_batch_size,
            "scale": "small",
        },
        "paths": {},
    }
    for path_name, bench in paths.items():
        clear_tof_plan_cache()
        timings = {}
        for backend_name in available_backends():
            seconds = bench(backend_name)
            timings[backend_name] = {
                "seconds": seconds,
                "frames_per_s": per_path_frames[path_name] / seconds,
            }
        reference = timings["numpy"]["seconds"]
        for backend_name, entry in timings.items():
            entry["speedup_vs_numpy"] = reference / entry["seconds"]
        results["paths"][path_name] = timings
        line = ", ".join(
            f"{name}: {entry['seconds'] * 1e3:7.1f} ms "
            f"({entry['speedup_vs_numpy']:.2f}x)"
            for name, entry in timings.items()
        )
        print(f"{path_name:15s} {line}")

    # Gated ratio: only recorded when cnative is available on this
    # host — compare_bench treats a missing key in both files as "not
    # applicable" rather than a regression.
    forward = results["paths"]["forward"]
    if "cnative" in forward:
        results["ratios"] = {
            "cnative_vs_numpy_forward": forward["cnative"][
                "speedup_vs_numpy"
            ],
        }

    OUT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"[written to {OUT_PATH}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
