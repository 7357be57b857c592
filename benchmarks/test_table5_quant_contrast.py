"""Table V: Tiny-VBF contrast on the FPGA per quantization scheme.

Paper (simulation, CR/CNR/GCNR): Float 14.89/1.75/0.74,
24 bits 14.07/1.84/0.75, 20 bits 14.30/1.45/0.73,
Hybrid-1 13.34/1.74/0.73, Hybrid-2 13.26/1.75/0.72.

Shape under test: every quantized scheme stays within ~2 dB CR of float
(the paper sees <1.7 dB variation), i.e. quantization preserves image
quality.

The quantized columns are bit-identical to the integer PE emulator's
round-at-end datapath (see ``docs/fpga-emulation.md``).
"""

import numpy as np

from repro.eval.tables import PAPER_TABLE_V
from repro.metrics.contrast import dataset_contrast

SCHEME_NAMES = ("float", "24 bits", "20 bits", "hybrid-1", "hybrid-2")


def _run(quantized_beamformers, dataset):
    results = {}
    for name in SCHEME_NAMES:
        envelope = np.abs(quantized_beamformers[name].beamform(dataset))
        results[name] = dataset_contrast(envelope, dataset)
    return results


def test_table5_quant_contrast(
    benchmark, sim_contrast, quantized_beamformers, record_result
):
    results = benchmark.pedantic(
        _run, args=(quantized_beamformers, sim_contrast), rounds=1,
        iterations=1,
    )

    lines = ["Table V [simulation]: contrast vs quantization "
             "(measured CR/CNR/GCNR | paper)"]
    for name in SCHEME_NAMES:
        metrics = results[name]
        paper_cr, paper_cnr, paper_gcnr = PAPER_TABLE_V[name]["simulation"]
        lines.append(
            f"  {name:10s} {metrics.cr_db:6.2f}/{metrics.cnr:5.2f}/"
            f"{metrics.gcnr:5.2f} | {paper_cr:5.2f}/{paper_cnr:5.2f}/"
            f"{paper_gcnr:5.2f}"
        )
    record_result("table5_quant_contrast", "\n".join(lines))

    reference = results["float"]
    for name in ("24 bits", "20 bits", "hybrid-1", "hybrid-2"):
        assert abs(results[name].cr_db - reference.cr_db) < 2.0
        assert abs(results[name].gcnr - reference.gcnr) < 0.1
