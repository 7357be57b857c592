"""Table VI: ZCU104 resource utilization per quantization scheme.

The resource model (repro.fpga.resources) is calibrated against the
published table; this bench regenerates all six columns, checks the
calibration, and verifies the qualitative claims: monotone decrease of
logic with bit-width and the >50 % Hybrid-2 reduction.

The datapath the resource counts describe is the one
``repro.fpga.emu`` executes bit-accurately (lanes, segmented DSP
multiplies, adder tree, rounding); the accuracy tables' modeled path
is bitwise that emulated arithmetic.
"""

import pytest

from repro.fpga.resources import (
    PAPER_TABLE_VI,
    RESOURCE_FIELDS,
    estimate_resources,
    reduction_vs_float,
    utilization_table,
)
from repro.quant.schemes import SCHEMES

SCHEME_NAMES = ("float", "24 bits", "20 bits", "16 bits", "hybrid-1",
                "hybrid-2")


def _estimate_all():
    return {name: estimate_resources(SCHEMES[name])
            for name in SCHEME_NAMES}


def test_table6_resources(benchmark, record_result):
    estimates = benchmark.pedantic(_estimate_all, rounds=1, iterations=1)

    table = utilization_table([estimates[name] for name in SCHEME_NAMES])
    lines = ["Table VI: resource utilization (model, calibrated to paper)",
             table, "", "Paper values:"]
    for name in SCHEME_NAMES:
        row = PAPER_TABLE_VI[name]
        lines.append(f"  {name:10s} " + " ".join(
            f"{row[field]:>10}" for field in RESOURCE_FIELDS
        ))
    record_result("table6_resources", "\n".join(lines))

    # Calibration: model reproduces every published cell.
    for name in SCHEME_NAMES:
        for field in RESOURCE_FIELDS:
            assert getattr(estimates[name], field) == pytest.approx(
                PAPER_TABLE_VI[name][field], rel=1e-6
            )

    # Qualitative claims.
    assert (estimates["16 bits"].lut < estimates["20 bits"].lut
            < estimates["24 bits"].lut < estimates["float"].lut)
    reductions = reduction_vs_float(estimates["hybrid-2"])
    assert reductions["lut"] > 50.0
    assert reductions["ff"] > 50.0
