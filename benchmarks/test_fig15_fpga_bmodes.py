"""Fig. 15: B-mode images generated from the (emulated) FPGA.

The paper shows reconstructions per quantization level: 24/20-bit and
the hybrids are visually identical to float, 16-bit degrades visibly.
We export the images and quantify the degradation as the RMS dB
difference from the float B-mode.  The quantized B-modes come from the
modeled path, bit-identical to the integer PE emulator's round-at-end
datapath.
"""

import numpy as np

from repro.beamform.bmode import bmode_image
from repro.utils.io import write_pgm

SCHEME_NAMES = ("float", "24 bits", "20 bits", "16 bits", "hybrid-1",
                "hybrid-2")


def _bmodes(quantized_beamformers, dataset):
    return {
        name: bmode_image(quantized_beamformers[name].beamform(dataset))
        for name in SCHEME_NAMES
    }


def test_fig15_quantized_bmodes(
    benchmark, sim_contrast, quantized_beamformers, figures_dir, record_result
):
    bmodes = benchmark.pedantic(
        _bmodes, args=(quantized_beamformers, sim_contrast), rounds=1,
        iterations=1,
    )
    for name, image in bmodes.items():
        safe = name.replace(" ", "")
        write_pgm(figures_dir / f"fig15_{safe}.pgm", image)

    reference = bmodes["float"]
    lines = ["Fig. 15: RMS dB deviation from the float B-mode "
             "(60 dB display range)"]
    deviation = {}
    for name in SCHEME_NAMES[1:]:
        clipped_ref = np.clip(reference, -60.0, 0.0)
        clipped = np.clip(bmodes[name], -60.0, 0.0)
        deviation[name] = float(
            np.sqrt(np.mean((clipped - clipped_ref) ** 2))
        )
        lines.append(f"  {name:10s} {deviation[name]:7.3f} dB")
    record_result("fig15_fpga_bmodes", "\n".join(lines))

    # 24-bit indistinguishable from float; narrowing the arithmetic
    # width increases the deviation monotonically (paper: "significant
    # degradation ... with 16-bit quantization").  One documented
    # difference (EXPERIMENTS.md): in our datapath the hybrids' 8-bit
    # *weights* dominate their deviation, so hybrid-1/2 deviate more
    # than uniform 16-bit — while still preserving every image metric
    # (Tables IV/V benches).
    assert deviation["24 bits"] < 1.0
    assert deviation["16 bits"] > 2.0 * deviation["24 bits"]
    assert deviation["hybrid-1"] < 6.0
    assert deviation["hybrid-2"] < 6.0
