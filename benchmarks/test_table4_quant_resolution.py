"""Table IV: Tiny-VBF resolution on the FPGA per quantization scheme.

Paper (mm): Float 0.303/0.45, 24 bits 0.303/0.45, 20 bits 0.310/0.45,
Hybrid-1 0.309/0.45, Hybrid-2 0.309/0.45 (simulation column).

Shape under test: quantization down to 20-bit / hybrid leaves the FWHM
within a few percent of float.

The quantized columns run on the modeled path, which is bitwise the
round-at-end integer PE datapath on every backend (the
``tests/backend/test_conformance.py`` and
``tests/quant/test_pe_agreement.py`` contracts; see
``docs/fpga-emulation.md``), so the numbers hold for the emulated
hardware too.
"""

from repro.eval.tables import PAPER_TABLE_IV
from repro.metrics.resolution import dataset_resolution

import numpy as np

SCHEME_NAMES = ("float", "24 bits", "20 bits", "hybrid-1", "hybrid-2")


def _run(quantized_beamformers, dataset):
    results = {}
    for name in SCHEME_NAMES:
        envelope = np.abs(quantized_beamformers[name].beamform(dataset))
        results[name] = dataset_resolution(envelope, dataset)
    return results


def test_table4_quant_resolution(
    benchmark, sim_resolution, quantized_beamformers, record_result
):
    results = benchmark.pedantic(
        _run, args=(quantized_beamformers, sim_resolution), rounds=1,
        iterations=1,
    )

    lines = ["Table IV [simulation]: resolution vs quantization "
             "(measured ax/lat | paper ax/lat)"]
    for name in SCHEME_NAMES:
        metrics = results[name]
        paper_ax, paper_lat = PAPER_TABLE_IV[name]["simulation"]
        lines.append(
            f"  {name:10s} {metrics.axial_mm:6.3f}/{metrics.lateral_mm:6.3f}"
            f" | {paper_ax:5.3f}/{paper_lat:5.2f}"
        )
    record_result("table4_quant_resolution", "\n".join(lines))

    reference = results["float"]
    for name in ("24 bits", "20 bits", "hybrid-1", "hybrid-2"):
        assert results[name].lateral_m <= reference.lateral_m * 1.15
        assert results[name].axial_m <= reference.axial_m * 1.15
