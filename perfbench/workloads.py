"""Workload definitions and seeded frame generation for the live benchmark.

Every constant here is fixed by the workload definition: arrival rates
and latency limits are never derived from a measurement taken at run
time, so two commits are always offered the same load.

The rates were sized on a 2-core host (offline per-frame time on
``cnative``: 6.7 ms DAS, 42 ms float Tiny-VBF, 127 ms Tiny-VBF at 20
bits; closed-loop gateway throughput with 2 workers: 154-166, 30-34 and
8.2 fps).  The Tiny-VBF rates load the engine to about half its
saturation throughput.  DAS runs at about a quarter: on a shared host
whose CPU can be taken away for a few hundred milliseconds, 30 fps per
probe overran the gateway's in-flight credit and frames got rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.gateway.protocol import dataset_geometry
from repro.ultrasound import simulation_contrast
from repro.ultrasound.acquisition import simulate_rf
from repro.ultrasound.datasets import acquisition_for


@dataclass(frozen=True)
class Workload:
    """One traffic mix: what is served, to how many probes, how fast.

    Attributes:
        name: workload id used on the command line.
        beamformer: ``repro.api.create_beamformer`` spec.
        angles_deg: one live session (probe) per steering angle.
        rate_fps: combined open-loop arrival rate over all sessions.
        slo_ms: latency limit of the open-loop phase (``slo_goodput``),
            about four frame intervals of one probe: a live display may
            lag a few frames behind the probe, not more.
    """

    name: str
    beamformer: str
    angles_deg: tuple[float, ...]
    rate_fps: float
    slo_ms: float


#: Compute backend of every workload.
BACKEND = "cnative"

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Float Tiny-VBF, one probe: the model forward is about two thirds
        # of execute time, so float-forward, code-generation and
        # thread-budget work shows here.
        Workload(
            name="live_tiny_vbf",
            beamformer="tiny_vbf",
            angles_deg=(0.0,),
            rate_fps=15.0,
            slo_ms=250.0,
        ),
        # Tiny-VBF on the 20-bit FPGA datapath: re-quantization dominates;
        # the only workload where the quantized path can show a gain.
        Workload(
            name="live_tiny_vbf_q20",
            beamformer="tiny_vbf@20 bits",
            angles_deg=(0.0,),
            rate_fps=4.0,
            slo_ms=1000.0,
        ),
        # Boxcar DAS, two probes at two steering angles: transport,
        # batching and ToF gather dominate, and two geometries split
        # batches and the plan cache.
        Workload(
            name="live_das_2probe",
            beamformer="das",
            angles_deg=(0.0, 10.0),
            rate_fps=40.0,
            slo_ms=200.0,
        ),
    )
}

#: Frame-index offsets that keep every phase's frames distinct.
SATURATION_BASE = 0
OPEN_LOOP_BASE = 1_000_000
WARMUP_BASE = 2_000_000

#: Independent noise fields mixed into the frames (one is picked per
#: frame, with a per-frame gain and noise level on top).
NOISE_BANK = 16


def inputs_path(work_dir: Path, workload: Workload) -> Path:
    """Where the prepared base acquisitions of ``workload`` live."""
    return work_dir / f"inputs-{workload.name}.npz"


def prepare_inputs(work_dir: Path, workload: Workload) -> Path:
    """Simulate each session's base acquisition once per checkout.

    The scene is the seed-independent ``simulation_contrast`` phantom;
    each steering angle is simulated from it.  Stored as raw RF plus
    the wire geometry, which is all a remote probe ever sends.
    """
    path = inputs_path(work_dir, workload)
    if path.exists():
        return path
    base = simulation_contrast()
    acquisition = acquisition_for(base.probe, base.medium, base.grid)
    rfs, geometries = [], []
    for angle_deg in workload.angles_deg:
        angle = float(np.deg2rad(angle_deg))
        rf = base.rf if angle == 0.0 else simulate_rf(
            acquisition, base.phantom, angle_rad=angle
        )
        dataset = replace(base, rf=rf, angle_rad=angle)
        rfs.append(np.ascontiguousarray(rf))
        geometries.append(dataset_geometry(dataset))
    work_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp.npz")
    np.savez(tmp, rf=np.stack(rfs), geometry=json.dumps(geometries))
    tmp.replace(path)
    return path


class FrameSource:
    """Deterministic distinct RF frames derived from the workload seed.

    Frame ``(session, index)`` is ``gain * base + level * noise[j]``
    with the gain, noise level and noise field drawn from a generator
    seeded by ``(seed, session, index)``.  Every index gives different
    bytes, so no result cache can answer a frame, and the reference
    check regenerates any frame from its index alone.
    """

    def __init__(self, inputs: Path, seed: int) -> None:
        with np.load(inputs) as data:
            self.base = data["rf"]
            self.geometries = json.loads(str(data["geometry"]))
        self.seed = seed
        rms = float(np.sqrt(np.mean(self.base**2)))
        rng = np.random.default_rng([seed, 7])
        self.noise = rms * rng.standard_normal(
            (NOISE_BANK, *self.base.shape[1:])
        )

    def rf(self, session: int, index: int) -> np.ndarray:
        """The RF frame ``index`` of ``session``."""
        rng = np.random.default_rng([self.seed, session, index])
        gain = 1.0 + 0.05 * rng.standard_normal()
        level = 0.01 * (1.0 + rng.random())
        pick = int(rng.integers(NOISE_BANK))
        return gain * self.base[session] + level * self.noise[pick]
