"""Serving parity for the emulated-PE quantized path.

``pe="emu-per-level"`` runs the quantized GEMMs on the integer PE
emulator through a thread-local rounding mode — exactly the kind of
state that a worker thread could silently drop.  This suite pins the
parity invariant (offline == two-worker ``ServeEngine``, bit for bit)
for an emulated-PE quantized beamformer on every registered backend,
which also proves the mode re-arms inside every worker thread.  The
per-level emulator is slow, so the parity frames use the miniature
golden geometry and network.
"""

import numpy as np
import pytest

from repro.api import create_beamformer
from repro.backend import available_backends
from repro.models.registry import build_model
from repro.serve import ReplaySource, ServeEngine
from repro.ultrasound import stream_gain_drift
from tests.backend.conftest import FakeDataset
from tests.golden import cases

N_FRAMES = 2


@pytest.fixture(scope="module")
def golden_frames():
    probe, grid = cases.golden_probe(), cases.golden_grid()
    rng = np.random.default_rng(21)
    shape = (cases.GOLDEN_N_SAMPLES, probe.n_elements)
    return [
        FakeDataset(rf=rng.standard_normal(shape), probe=probe, grid=grid)
        for _ in range(N_FRAMES)
    ]


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
        self, golden_frames, backend
    ):
        model = cases.golden_model()
        beamformer = create_beamformer(
            "tiny_vbf@16 bits", model=model, backend=backend,
            pe="emu-per-level",
        )
        assert beamformer.describe()["pe"] == "emu-per-level"
        offline = [beamformer.beamform(frame) for frame in golden_frames]
        # A worker that dropped the rounding mode would serve these.
        modeled = create_beamformer(
            "tiny_vbf@16 bits", model=model, backend=backend
        )
        assert not np.array_equal(
            offline[0], modeled.beamform(golden_frames[0])
        )
        report = ServeEngine(
            beamformer, n_workers=2, log_every_s=0.0
        ).serve(ReplaySource(golden_frames))
        assert report.completed == len(golden_frames)
        for reference, image in zip(offline, report.images):
            np.testing.assert_array_equal(reference, image)

    def test_per_level_serving_differs_from_the_modeled_path(
        self, frames, model
    ):
        # Sanity that the knob actually reaches the datapath during
        # serving: the two rounding placements must not produce
        # identical images on real frames.
        modeled = create_beamformer("tiny_vbf@16 bits", model=model)
        per_level = create_beamformer("tiny_vbf@16 bits", model=model,
                                      pe="emu-per-level")
        image_modeled = modeled.beamform(frames[0])
        image_pl = per_level.beamform(frames[0])
        assert image_modeled.shape == image_pl.shape
        assert not np.array_equal(image_modeled, image_pl)
