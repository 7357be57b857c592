"""Streaming acquisition adapters: live-probe-style frame generation.

The serving layer (:mod:`repro.serve`) consumes *streams* of
:class:`~repro.ultrasound.datasets.PlaneWaveDataset` frames rather than
single dataset objects.  Two generators provide those streams:

* :func:`stream_scene_drift` — physically re-simulated frames of a
  slowly evolving scene: the scatterer cloud random-walks between frames
  (tissue motion / probe micro-movement) and each frame runs the full
  forward model.  This is the highest-fidelity stand-in for a live
  probe.
* :func:`stream_gain_drift` — cheap per-frame multiplicative gain
  perturbation of one base acquisition.  Same geometry, fresh sample
  values, no re-simulation cost — the workhorse for serving benches and
  tests where simulation time would dominate the measurement.

Both preserve the base acquisition geometry exactly (probe, grid, angle,
sound speed, record length), so every streamed frame resolves to the
same cached :class:`~repro.beamform.tof.TofPlan` and the serving
engine can batch the whole stream under one plan.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator

import numpy as np

from repro.ultrasound.acquisition import simulate_rf
from repro.ultrasound.datasets import PlaneWaveDataset, acquisition_for
from repro.ultrasound.phantoms import Phantom
from repro.utils.rng import make_rng


def drifted_phantom(
    phantom: Phantom,
    rng: np.random.Generator,
    drift_sigma_m: float,
) -> Phantom:
    """One random-walk step of the scatterer cloud.

    Every scatterer moves independently by an isotropic Gaussian step of
    standard deviation ``drift_sigma_m`` (per axis); amplitudes are
    unchanged.  Successive calls therefore model slow, incoherent scene
    motion — enough to decorrelate speckle over tens of frames without
    deforming the macroscopic targets.
    """
    if drift_sigma_m < 0:
        raise ValueError(
            f"drift_sigma_m must be >= 0, got {drift_sigma_m}"
        )
    if drift_sigma_m == 0 or phantom.positions_m.shape[0] == 0:
        return phantom
    step = rng.normal(0.0, drift_sigma_m, size=phantom.positions_m.shape)
    return Phantom(
        positions_m=phantom.positions_m + step,
        amplitudes=phantom.amplitudes,
    )


def stream_scene_drift(
    base: PlaneWaveDataset,
    n_frames: int,
    drift_sigma_m: float = 50e-6,
    seed: int = 0,
) -> Iterator[PlaneWaveDataset]:
    """Yield ``n_frames`` re-simulated frames of a drifting scene.

    Each frame advances the scatterer cloud by one
    :func:`drifted_phantom` step and runs the full plane-wave forward
    model on the base acquisition geometry.  Deterministic in ``seed``.
    """
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    rng = make_rng(seed)
    acquisition = acquisition_for(base.probe, base.medium, base.grid)
    if acquisition.n_samples != base.rf.shape[0]:
        raise ValueError(
            "base dataset record length "
            f"({base.rf.shape[0]}) does not match its acquisition "
            f"geometry ({acquisition.n_samples}); streamed frames would "
            "not share the base ToF plan"
        )
    phantom = base.phantom
    for index in range(n_frames):
        phantom = drifted_phantom(phantom, rng, drift_sigma_m)
        rf = simulate_rf(acquisition, phantom, base.angle_rad)
        yield replace(
            base,
            spec=replace(base.spec, name=f"{base.name}/drift{index:04d}"),
            rf=rf,
            phantom=phantom,
        )


def stream_gain_drift(
    base: PlaneWaveDataset,
    n_frames: int,
    gain_rms: float = 0.01,
    seed: int = 0,
) -> Iterator[PlaneWaveDataset]:
    """Yield ``n_frames`` gain-perturbed copies of one acquisition.

    Each frame multiplies the base RF by ``1 + gain_rms * N(0, 1)``
    (elementwise) — a cheap stand-in for frame-to-frame signal variation
    that keeps the geometry (and therefore the ToF plan) fixed.
    Deterministic in ``seed``.
    """
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    if gain_rms < 0:
        raise ValueError(f"gain_rms must be >= 0, got {gain_rms}")
    rng = make_rng(seed)
    for index in range(n_frames):
        gain = 1.0 + gain_rms * rng.standard_normal(base.rf.shape)
        yield replace(
            base,
            spec=replace(base.spec, name=f"{base.name}/gain{index:04d}"),
            rf=base.rf * gain,
        )
