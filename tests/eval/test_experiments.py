"""Unit tests for the experiment runners (classical methods only —
the trained-model paths are covered by integration tests and benches)."""

import numpy as np
import pytest

from repro.api import create_beamformer
from repro.eval.experiments import (
    eval_beamformers,
    run_contrast_experiment,
    run_resolution_experiment,
)


class TestEvalBeamformers:
    def test_das_runs(self, sim_contrast_dataset):
        iq = create_beamformer("das").beamform(sim_contrast_dataset)
        assert iq.shape == sim_contrast_dataset.grid.shape
        assert np.iscomplexobj(iq)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            eval_beamformers(("beam_search",))

    def test_learned_method_requires_model(self):
        with pytest.raises(ValueError, match="not in supplied models"):
            eval_beamformers(("tiny_vbf",), models={})

    def test_runner_rejects_incomplete_models(self, sim_contrast_dataset):
        # A supplied models dict must cover every learned method; a
        # missing entry must not silently train a default model.
        with pytest.raises(ValueError, match="not in supplied models"):
            run_contrast_experiment(
                sim_contrast_dataset,
                methods=("das", "tiny_cnn"),
                models={"tiny_vbf": object()},
            )


class TestRunners:
    def test_contrast_runner_classical(self, sim_contrast_dataset):
        results = run_contrast_experiment(
            sim_contrast_dataset, methods=("das", "mvdr")
        )
        assert set(results) == {"das", "mvdr"}
        assert results["mvdr"].cr_db > results["das"].cr_db

    def test_resolution_runner_classical(self, sim_resolution_dataset):
        results = run_resolution_experiment(
            sim_resolution_dataset, methods=("das", "mvdr")
        )
        assert results["mvdr"].lateral_m <= results["das"].lateral_m
        for metrics in results.values():
            assert 0.05e-3 < metrics.axial_m < 1.0e-3
            assert 0.1e-3 < metrics.lateral_m < 1.5e-3
