"""FPGA accelerator simulation (paper Section III-D and IV-A).

The paper deploys Tiny-VBF on a Zynq UltraScale+ MPSoC ZCU104 at 100 MHz
with a 4-PE accelerator — each PE performing 16 element-wise
multiplications feeding an adder tree (Figs. 5-8) — and reports resource
utilization per quantization scheme (Table VI).  No FPGA exists in this
environment, so this package simulates the accelerator's observables:

* :mod:`repro.fpga.pe` — processing-element geometry (16 multipliers
  + adder tree),
* :mod:`repro.fpga.emu` — the PE model: its integer datapath, lane by
  lane, with round-at-the-end or per-level rounding,
* :mod:`repro.fpga.memory` — BRAM capacity model (36 Kb blocks, 18-bit
  port packing),
* :mod:`repro.fpga.scheduler` — op-level cycle schedule of the Tiny-VBF
  graph on the 4-PE array at 100 MHz,
* :mod:`repro.fpga.accelerator` — the cycle/latency/memory report of
  one model and scheme,
* :mod:`repro.fpga.resources` — resource/power model calibrated against
  the paper's published Table VI.
"""

from repro.fpga.memory import BramPlan, bram_blocks_for
from repro.fpga.scheduler import (
    CLOCK_HZ,
    OpSchedule,
    ScheduleReport,
    schedule_tiny_vbf,
)
from repro.fpga.accelerator import AcceleratorReport, TinyVbfAccelerator
from repro.fpga.resources import (
    PAPER_TABLE_VI,
    ResourceEstimate,
    estimate_resources,
)

__all__ = [
    "BramPlan",
    "bram_blocks_for",
    "CLOCK_HZ",
    "OpSchedule",
    "ScheduleReport",
    "schedule_tiny_vbf",
    "TinyVbfAccelerator",
    "AcceleratorReport",
    "ResourceEstimate",
    "estimate_resources",
    "PAPER_TABLE_VI",
]
