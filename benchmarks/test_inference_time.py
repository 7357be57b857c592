"""Inference time comparison (paper Section IV).

Paper, per 368 x 128 frame on a 2-vCPU Xeon: Tiny-VBF 0.230 s,
Tiny-CNN 0.520 s, MVDR 240 s.  The measured small-scale CPU times are
recorded next to the paper's, never asserted: wall-clock orderings
depend on the host and its load.  The compute ordering Tiny-VBF <
Tiny-CNN < MVDR is asserted on GOP counts (``test_complexity_gops.py``);
this bench asserts the accelerator claim on the cycle model.
"""

import numpy as np

from repro.beamform.mvdr import MvdrConfig, mvdr_beamform
from repro.beamform.tof import analytic_tofc
from repro.eval.tables import PAPER_COMPLEXITY
from repro.fpga import schedule_tiny_vbf
from repro.metrics.complexity import measure_inference_seconds
from repro.models.registry import model_input
from repro.models.tiny_vbf import small_config


def test_inference_time_ordering(
    benchmark, sim_contrast, models, record_result
):
    dataset = sim_contrast
    tofc = analytic_tofc(
        dataset.rf, dataset.probe, dataset.grid,
        dataset.angle_rad, dataset.sound_speed_m_s,
    )
    peak = np.abs(tofc).max()
    inputs = {
        kind: model_input(kind, tofc / peak)
        for kind in ("tiny_vbf", "tiny_cnn", "fcnn")
    }

    timings = {
        kind: measure_inference_seconds(
            lambda m=models[kind], x=inputs[kind]: m.forward(x), repeats=3
        )
        for kind in ("tiny_vbf", "tiny_cnn", "fcnn")
    }
    timings["mvdr"] = measure_inference_seconds(
        lambda: mvdr_beamform(tofc, MvdrConfig()), repeats=1
    )
    benchmark.pedantic(
        lambda: models["tiny_vbf"].forward(inputs["tiny_vbf"]),
        rounds=3, iterations=1,
    )

    schedule = schedule_tiny_vbf(small_config())
    lines = ["Inference seconds per frame at small scale "
             "(measured | paper@368x128)"]
    for kind in ("tiny_vbf", "tiny_cnn", "fcnn", "mvdr"):
        paper = PAPER_COMPLEXITY.get(kind, {}).get("cpu_seconds")
        paper_str = f"{paper:8.3f}" if paper is not None else "      --"
        lines.append(f"  {kind:10s} {timings[kind]:8.3f} | {paper_str}")
    lines.append(
        f"  FPGA accelerator latency @100 MHz: "
        f"{schedule.latency_s*1e3:.2f} ms/frame"
    )
    record_result("inference_time", "\n".join(lines))

    # The modeled 100 MHz accelerator beats the paper's CPU time for
    # Tiny-VBF.  Both sides are host-independent constants.
    assert schedule.latency_s < PAPER_COMPLEXITY["tiny_vbf"]["cpu_seconds"]
