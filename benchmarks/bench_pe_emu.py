"""Emulated-PE benchmark: integer-datapath cost vs the modeled path.

Measures, per Table-III quantization scheme:

* **matmul** — raw :class:`repro.fpga.emu.EmulatedPE` GEMM throughput
  in MACs/s for both rounding modes (the emulator's hot loop: lane
  packing, segmented multiply, full-width accumulate, final round),
* **forward** — a small Tiny-VBF forward on the round-at-end emulator
  (``pe_rounding("round_at_end")``, the modeled path's oracle) vs the
  plain modeled ``quantized_forward`` on the ``16 bits`` scheme.

Writes ``benchmarks/BENCH_pe_emu.json``.  The emulator is a *cost
model*, not an accelerator — it is expected to be slower than the
fake-quantized float path.  The gated ``ratios.emu_vs_qexec_forward``
(modeled seconds / emulated seconds) therefore guards against
performance cliffs (an accidental per-element Python loop is a >10x
ratio collapse), not against losing a race it was never in.

Usage:
    PYTHONPATH=src python benchmarks/bench_pe_emu.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.fpga.emu import ROUNDING_MODES, EmulatedPE
from repro.models.registry import build_model
from repro.quant.qexec import QuantizedModel, pe_rounding, quantized_forward
from repro.quant.schemes import SCHEMES

OUT_PATH = Path(__file__).resolve().parent / "BENCH_pe_emu.json"

FORWARD_SCHEME = "16 bits"


def timeit(fn, repeats: int) -> float:
    """Best-of-N wall time (the usual perf-bench convention)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_matmul(scheme_name: str, shape, repeats: int) -> dict:
    scheme = SCHEMES[scheme_name]
    m, k, n = shape
    rng = np.random.default_rng(7)
    a = scheme.intermediate.quantize(rng.uniform(-4.0, 4.0, (m, k)))
    b = scheme.weights.quantize(rng.uniform(-1.5, 1.5, (k, n)))
    macs = m * k * n
    entry = {}
    for mode in ROUNDING_MODES:
        pe = EmulatedPE.for_scheme(scheme, rounding_mode=mode)
        pe.matmul(a, b)  # warm-up (allocations, dtype promotion)
        seconds = timeit(lambda: pe.matmul(a, b), repeats)
        entry[mode] = {
            "seconds": seconds,
            "mac_per_s": macs / seconds,
        }
    return entry


def bench_forward(batch: np.ndarray, repeats: int) -> dict:
    model = build_model("tiny_vbf", "small", seed=0)
    scheme = SCHEMES[FORWARD_SCHEME]
    quantized = QuantizedModel(model, scheme)

    def emulated(x: np.ndarray) -> np.ndarray:
        with pe_rounding("round_at_end"):
            return quantized(x)

    quantized_forward(model.root, batch, scheme)  # warm-up
    emulated(batch)
    modeled_s = timeit(
        lambda: quantized_forward(model.root, batch, scheme), repeats
    )
    emulated_s = timeit(lambda: emulated(batch), repeats)
    return {
        "scheme": FORWARD_SCHEME,
        "modeled_seconds": modeled_s,
        "emulated_seconds": emulated_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny workload for CI smoke runs",
    )
    args = parser.parse_args(argv)
    shape = (16, 128, 16) if args.smoke else (64, 512, 64)
    repeats = 2 if args.smoke else 5
    batch_size = 1 if args.smoke else 2

    rng = np.random.default_rng(1)
    batch = rng.uniform(-1.0, 1.0, (batch_size, 368, 64, 64))

    results: dict = {
        "config": {
            "matmul_shape": list(shape),
            "repeats": repeats,
            "forward_batch": batch_size,
            "scale": "small",
        },
        "matmul": {},
    }
    for name, scheme in SCHEMES.items():
        if scheme.is_float:
            continue
        entry = bench_matmul(name, shape, repeats)
        results["matmul"][name] = entry
        line = ", ".join(
            f"{mode}: {values['seconds'] * 1e3:7.2f} ms "
            f"({values['mac_per_s'] / 1e6:6.1f} MMAC/s)"
            for mode, values in entry.items()
        )
        print(f"{name:10s} {line}")

    forward = bench_forward(batch, repeats)
    results["forward"] = forward
    results["ratios"] = {
        "emu_vs_qexec_forward": (
            forward["modeled_seconds"] / forward["emulated_seconds"]
        ),
    }
    print(
        f"forward    modeled: {forward['modeled_seconds'] * 1e3:7.1f} ms, "
        f"emulated: {forward['emulated_seconds'] * 1e3:7.1f} ms "
        f"(ratio {results['ratios']['emu_vs_qexec_forward']:.3f})"
    )

    OUT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"[written to {OUT_PATH}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
