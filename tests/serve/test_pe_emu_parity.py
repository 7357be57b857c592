"""Serving parity for the emulated-PE quantized path.

The ``pe="emu"`` knob swaps the quantized GEMMs onto the integer PE
emulator through a thread-local scope — exactly the kind of state that
a worker thread could silently drop.  This suite pins the parity
invariant (offline == two-worker ``ServeEngine``, bit for bit) for an
emulated-PE quantized beamformer on every registered backend, which
also proves the scope re-arms inside every worker thread.
"""

import numpy as np
import pytest

from repro.api import create_beamformer
from repro.backend import available_backends
from repro.models.registry import build_model
from repro.serve import ReplaySource, ServeEngine
from repro.ultrasound import stream_gain_drift

N_FRAMES = 2


@pytest.fixture(scope="module")
def frames(sim_contrast_dataset):
    return list(
        stream_gain_drift(sim_contrast_dataset, N_FRAMES, seed=21)
    )


@pytest.fixture(scope="module")
def model():
    return build_model("tiny_vbf", "small", seed=0)


class TestEmulatedPeServeParity:
    @pytest.mark.parametrize("backend", available_backends())
    def test_offline_threaded_bitwise_parity(
        self, frames, model, backend
    ):
        beamformer = create_beamformer(
            "tiny_vbf@16 bits", model=model, backend=backend, pe="emu"
        )
        assert beamformer.describe()["pe"] == "emu"
        offline = [beamformer.beamform(frame) for frame in frames]
        report = ServeEngine(
            beamformer, n_workers=2, log_every_s=0.0
        ).serve(ReplaySource(frames))
        assert report.completed == len(frames)
        for reference, image in zip(offline, report.images):
            np.testing.assert_array_equal(reference, image)

    def test_emulated_serving_differs_from_per_level(self, frames,
                                                     model):
        # Sanity that the knob actually reaches the datapath during
        # serving: the two rounding modes must not produce identical
        # images on real frames.
        emu = create_beamformer("tiny_vbf@16 bits", model=model,
                                pe="emu")
        per_level = create_beamformer("tiny_vbf@16 bits", model=model,
                                      pe="emu-per-level")
        image_emu = emu.beamform(frames[0])
        image_pl = per_level.beamform(frames[0])
        assert image_emu.shape == image_pl.shape
        assert not np.array_equal(image_emu, image_pl)
