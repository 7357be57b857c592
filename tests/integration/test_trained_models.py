"""Integration tests over the *trained* learned beamformers.

These use the weight cache in ``artifacts/weights`` (populated by the
benchmark/training runs).  If the cache is empty the tests are skipped
rather than silently triggering a multi-minute training run inside the
unit-test suite — run ``python examples/train_tiny_vbf.py`` or the
benchmarks first.
"""

import numpy as np
import pytest

from repro.api import create_beamformer
from repro.beamform import beamform_dataset
from repro.beamform.envelope import envelope_detect
from repro.metrics import dataset_contrast, dataset_resolution
from repro.training.cache import trained_weights_path


def _require_cached(kind):
    path = trained_weights_path(kind, "small", 0)
    if not path.exists():
        pytest.skip(
            f"no cached weights for {kind} (run the benchmarks first)"
        )
    from repro.training.cache import get_trained_model

    return get_trained_model(kind, "small", 0)


def learned_envelope(model, kind, dataset):
    """Envelope of ``dataset`` beamformed by ``model`` as ``kind``."""
    beamformer = create_beamformer(kind, model=model)
    return envelope_detect(beamformer.beamform(dataset))


@pytest.fixture(scope="module")
def tiny_vbf():
    return _require_cached("tiny_vbf")


@pytest.fixture(scope="module")
def tiny_cnn():
    return _require_cached("tiny_cnn")


class TestTinyVbfTrained:
    def test_contrast_beats_tiny_cnn(
        self, tiny_vbf, tiny_cnn, sim_contrast_dataset
    ):
        ds = sim_contrast_dataset
        vbf = dataset_contrast(
            learned_envelope(tiny_vbf, "tiny_vbf", ds), ds
        )
        cnn = dataset_contrast(
            learned_envelope(tiny_cnn, "tiny_cnn", ds), ds
        )
        assert vbf.cr_db > cnn.cr_db

    def test_contrast_competitive_with_das(
        self, tiny_vbf, sim_contrast_dataset
    ):
        ds = sim_contrast_dataset
        das = dataset_contrast(
            envelope_detect(beamform_dataset(ds, "das")), ds
        )
        vbf = dataset_contrast(
            learned_envelope(tiny_vbf, "tiny_vbf", ds), ds
        )
        assert vbf.cr_db > das.cr_db - 2.0

    def test_resolution_tracks_mvdr(self, tiny_vbf, sim_resolution_dataset):
        ds = sim_resolution_dataset
        das = dataset_resolution(
            envelope_detect(beamform_dataset(ds, "das")), ds
        )
        vbf = dataset_resolution(
            learned_envelope(tiny_vbf, "tiny_vbf", ds), ds
        )
        # Known gap (EXPERIMENTS.md): lateral FWHM within 25 % of DAS
        # rather than below it at this aperture/training budget.
        assert vbf.lateral_m < das.lateral_m * 1.25

    def test_quantized_inference_stays_close_to_float(
        self, tiny_vbf, sim_contrast_dataset
    ):
        ds = sim_contrast_dataset
        float_iq = create_beamformer(
            "tiny_vbf@float", model=tiny_vbf
        ).beamform(ds)
        hybrid_iq = create_beamformer(
            "tiny_vbf@hybrid-1", model=tiny_vbf
        ).beamform(ds)
        scale = np.abs(float_iq).max()
        error = np.abs(hybrid_iq - float_iq).mean() / scale
        # Hybrid error is dominated by the 8-bit weights (~2.5 % of
        # scale measured); the image *metrics* stay intact, which the
        # quantization benches assert.
        assert error < 0.05

    def test_generalizes_to_unseen_seed(self, tiny_vbf):
        # A contrast scene from a seed never used in training.
        from repro.ultrasound import simulation_contrast

        ds = simulation_contrast(seed=999)
        vbf = dataset_contrast(
            learned_envelope(tiny_vbf, "tiny_vbf", ds), ds
        )
        assert vbf.cr_db > 6.0
