"""Unified Beamformer API: factory, adapters, parity with legacy paths.

Parity tests replicate the *legacy* computation inline (direct
``analytic_tofc`` recomputation, no plan cache) and assert the new
plan-cached API reproduces it bit-for-bit.  Learned/quantized parity
uses freshly built (untrained) models — the datapath, not the weights,
is under test — so these tests never touch the weight cache.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.api import (
    Beamformer,
    DasBeamformer,
    LearnedBeamformer,
    MvdrBeamformer,
    QuantizedBeamformer,
    create_beamformer,
    parse_spec,
    register_beamformer,
    registered_beamformers,
)
from repro.api.factory import _REGISTRY
from repro.beamform.apodization import boxcar_rx_apodization
from repro.beamform.das import das_beamform
from repro.beamform.mvdr import mvdr_beamform
from repro.beamform.tof import analytic_tofc, clear_tof_plan_cache, \
    tof_plan_cache_stats
from repro.models.common import stacked_to_complex
from repro.models.registry import build_model, model_input
from repro.quant.qexec import QuantizedModel
from repro.quant.schemes import SCHEMES


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_tof_plan_cache()
    yield
    clear_tof_plan_cache()


@pytest.fixture(scope="module")
def untrained_models():
    return {
        kind: build_model(kind, "small", seed=0)
        for kind in ("tiny_vbf", "tiny_cnn", "fcnn")
    }


def _legacy_tofc(dataset):
    """The pre-API input path: direct recomputation, no plan cache."""
    return analytic_tofc(
        dataset.rf,
        dataset.probe,
        dataset.grid,
        angle_rad=dataset.angle_rad,
        sound_speed_m_s=dataset.sound_speed_m_s,
    )


def _legacy_predict(model, kind, dataset):
    tofc = _legacy_tofc(dataset)
    x = model_input(kind, tofc / np.abs(tofc).max())
    return stacked_to_complex(model.forward(x, training=False)[0])


class TestFactory:
    def test_registered_builtins(self):
        names = registered_beamformers()
        for name in ("das", "mvdr", "tiny_vbf", "tiny_cnn", "fcnn"):
            assert name in names

    def test_parse_spec(self):
        assert parse_spec("das") == ("das", None)
        assert parse_spec("tiny_vbf@20 bits") == ("tiny_vbf", "20 bits")

    @pytest.mark.parametrize("spec", ["", "@", "das@", "@float"])
    def test_parse_rejects_malformed(self, spec):
        with pytest.raises(ValueError):
            parse_spec(spec)

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="registered:"):
            create_beamformer("beam_search")

    def test_classical_specs(self):
        assert isinstance(create_beamformer("das"), DasBeamformer)
        assert isinstance(create_beamformer("mvdr"), MvdrBeamformer)

    def test_classical_kwargs_forwarded(self):
        assert create_beamformer("das", f_number=2.5).f_number == 2.5

    def test_scheme_on_classical_rejected(self):
        with pytest.raises(ValueError, match="tiny_vbf"):
            create_beamformer("das@float")

    def test_scheme_on_baseline_model_rejected(self):
        with pytest.raises(ValueError, match="tiny_vbf"):
            create_beamformer("tiny_cnn@float")

    def test_pe_on_unquantized_specs_rejected(self, untrained_models):
        with pytest.raises(ValueError, match="no PE datapath"):
            create_beamformer("das", pe="emu-per-level")
        with pytest.raises(ValueError, match="requires a quantized spec"):
            create_beamformer(
                "tiny_vbf", model=untrained_models["tiny_vbf"],
                pe="emu-per-level",
            )

    def test_unknown_scheme_rejected(self, untrained_models):
        with pytest.raises(ValueError):
            create_beamformer(
                "tiny_vbf@3 bits", model=untrained_models["tiny_vbf"]
            )

    def test_learned_spec_wraps_supplied_model(self, untrained_models):
        beamformer = create_beamformer(
            "tiny_vbf", model=untrained_models["tiny_vbf"]
        )
        assert isinstance(beamformer, LearnedBeamformer)
        assert beamformer.model is untrained_models["tiny_vbf"]

    def test_quantized_spec(self, untrained_models):
        beamformer = create_beamformer(
            "tiny_vbf@hybrid-1", model=untrained_models["tiny_vbf"]
        )
        assert isinstance(beamformer, QuantizedBeamformer)
        assert beamformer.scheme is SCHEMES["hybrid-1"]

    def test_register_custom_and_duplicate(self):
        sentinel = object()
        try:
            register_beamformer("custom_bf", lambda **kw: sentinel)
            assert "custom_bf" in registered_beamformers()
            assert create_beamformer("custom_bf") is sentinel
            with pytest.raises(ValueError, match="already registered"):
                register_beamformer("custom_bf", lambda **kw: None)
        finally:
            _REGISTRY.pop("custom_bf", None)

    def test_register_rejects_bad_names(self):
        with pytest.raises(ValueError):
            register_beamformer("a@b", lambda **kw: None)


class TestEvalBeamformers:
    def test_quantized_spec_uses_supplied_model(self, untrained_models):
        from repro.eval.experiments import eval_beamformers

        built = eval_beamformers(
            ("das", "tiny_vbf@float"),
            {"tiny_vbf": untrained_models["tiny_vbf"]},
        )
        assert isinstance(built["tiny_vbf@float"], QuantizedBeamformer)
        assert built["tiny_vbf@float"].model is untrained_models["tiny_vbf"]

    def test_missing_model_raises(self, untrained_models):
        from repro.eval.experiments import eval_beamformers

        with pytest.raises(ValueError, match="not in supplied models"):
            eval_beamformers(
                ("tiny_cnn",), {"tiny_vbf": untrained_models["tiny_vbf"]}
            )


class TestDescribe:
    def test_every_spec_describes_itself(self, untrained_models):
        specs = ("das", "mvdr", "tiny_vbf", "tiny_vbf@float")
        for spec in specs:
            model = (
                untrained_models["tiny_vbf"]
                if spec.startswith("tiny_vbf") else None
            )
            description = create_beamformer(spec, model=model).describe()
            assert description["name"]
            assert description["backend"] in (
                "classical", "learned", "fpga"
            )


class TestClassicalParity:
    def test_das_matches_legacy(self, sim_contrast_dataset):
        ds = sim_contrast_dataset
        legacy = das_beamform(
            _legacy_tofc(ds),
            boxcar_rx_apodization(ds.probe, ds.grid, f_number=1.75),
        )
        assert np.array_equal(create_beamformer("das").beamform(ds), legacy)

    def test_mvdr_matches_legacy(self, sim_contrast_dataset):
        ds = sim_contrast_dataset
        legacy = mvdr_beamform(_legacy_tofc(ds), None)
        assert np.array_equal(
            create_beamformer("mvdr").beamform(ds), legacy
        )


class TestLearnedParity:
    @pytest.mark.parametrize("kind", ["tiny_vbf", "tiny_cnn", "fcnn"])
    def test_matches_legacy_predict(
        self, kind, untrained_models, sim_contrast_dataset
    ):
        ds = sim_contrast_dataset
        model = untrained_models[kind]
        legacy = _legacy_predict(model, kind, ds)
        new = create_beamformer(kind, model=model).beamform(ds)
        assert np.array_equal(new, legacy)
        assert new.shape == ds.grid.shape

    def test_quantized_matches_legacy(
        self, untrained_models, sim_contrast_dataset
    ):
        ds = sim_contrast_dataset
        model = untrained_models["tiny_vbf"]
        tofc = _legacy_tofc(ds)
        x = model_input("tiny_vbf", tofc / np.abs(tofc).max())
        legacy = stacked_to_complex(
            QuantizedModel(model, SCHEMES["20 bits"])(x)[0]
        )
        new = create_beamformer(
            "tiny_vbf@20 bits", model=model
        ).beamform(ds)
        assert np.array_equal(new, legacy)

    def test_silent_dataset_guard_float_and_quantized(
        self, untrained_models, sim_contrast_dataset
    ):
        silent = replace(
            sim_contrast_dataset, rf=np.zeros_like(sim_contrast_dataset.rf)
        )
        model = untrained_models["tiny_vbf"]
        with pytest.raises(ValueError, match="silent ToFC"):
            LearnedBeamformer("tiny_vbf", model=model).beamform(silent)
        # The legacy quantized path divided by the zero peak silently;
        # the unified input preparation guards both datapaths.
        with pytest.raises(ValueError, match="silent ToFC"):
            QuantizedBeamformer("float", model=model).beamform(silent)


class TestBatch:
    def test_das_batch_reuses_one_plan(self, sim_contrast_dataset):
        ds = sim_contrast_dataset
        other = replace(ds, rf=np.roll(ds.rf, 17, axis=0))
        beamformer = create_beamformer("das")
        clear_tof_plan_cache()
        batch = beamformer.beamform_batch([ds, other, ds])
        stats = tof_plan_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 2
        assert len(batch) == 3
        assert np.array_equal(batch[0], batch[2])
        assert np.array_equal(batch[0], beamformer.beamform(ds))
        assert not np.array_equal(batch[0], batch[1])

    def test_learned_batch_stacks_one_forward(
        self, untrained_models, sim_contrast_dataset
    ):
        ds = sim_contrast_dataset
        other = replace(ds, rf=np.roll(ds.rf, 31, axis=0))
        beamformer = LearnedBeamformer(
            "tiny_cnn", model=untrained_models["tiny_cnn"]
        )
        batch = beamformer.beamform_batch([ds, other])
        assert len(batch) == 2
        np.testing.assert_allclose(
            batch[0], beamformer.beamform(ds), rtol=1e-10, atol=1e-12
        )
        np.testing.assert_allclose(
            batch[1], beamformer.beamform(other), rtol=1e-10, atol=1e-12
        )

    def test_singleton_batch_matches_beamform(
        self, untrained_models, sim_contrast_dataset
    ):
        beamformer = LearnedBeamformer(
            "fcnn", model=untrained_models["fcnn"]
        )
        (single,) = beamformer.beamform_batch([sim_contrast_dataset])
        assert np.array_equal(
            single, beamformer.beamform(sim_contrast_dataset)
        )


class TestBaseClass:
    def test_beamformer_is_abstract(self):
        with pytest.raises(TypeError):
            Beamformer()


class TestGeometryGroupedBatch:
    """Mixed-geometry batches are grouped by plan key before execution
    (satellite of the repro.serve PR): plan locality survives
    interleaving, and results always come back in input order."""

    def _steered(self, dataset, degrees):
        return replace(dataset, angle_rad=np.deg2rad(degrees))

    def test_group_indices_by_geometry(self, sim_contrast_dataset):
        from repro.api import group_indices_by_geometry

        a = sim_contrast_dataset
        b = self._steered(a, 4.0)
        groups = group_indices_by_geometry([a, b, a, b, a])
        assert groups == [[0, 2, 4], [1, 3]]

    def test_interleaved_geometries_keep_plan_locality(
        self, sim_contrast_dataset
    ):
        from repro.beamform.tof import set_tof_plan_cache_size

        a = sim_contrast_dataset
        b = self._steered(a, 4.0)
        batch = [a, b, a, b, a, b]
        beamformer = create_beamformer("das")
        set_tof_plan_cache_size(1)
        try:
            clear_tof_plan_cache()
            images = beamformer.beamform_batch(batch)
            stats = tof_plan_cache_stats()
        finally:
            set_tof_plan_cache_size(8)
        # Grouped execution builds each geometry's plan exactly once; an
        # input-order loop would rebuild on every frame (6 misses).
        assert stats["misses"] == 2
        assert len(images) == 6

    def test_results_in_input_order(self, sim_contrast_dataset):
        a = sim_contrast_dataset
        b = self._steered(a, 4.0)
        beamformer = create_beamformer("das")
        images = beamformer.beamform_batch([a, b, a])
        assert np.array_equal(images[0], beamformer.beamform(a))
        assert np.array_equal(images[1], beamformer.beamform(b))
        assert np.array_equal(images[0], images[2])

    def test_learned_mixed_batch_stacks_per_group(
        self, untrained_models, sim_contrast_dataset
    ):
        a = sim_contrast_dataset
        b = self._steered(a, 4.0)
        beamformer = LearnedBeamformer(
            "tiny_vbf", model=untrained_models["tiny_vbf"]
        )
        images = beamformer.beamform_batch([a, b, a, b])
        assert len(images) == 4
        # Stacked group forwards are batch-invariant: parity with the
        # single-frame path is exact.
        assert np.array_equal(images[0], beamformer.beamform(a))
        assert np.array_equal(images[1], beamformer.beamform(b))
        assert np.array_equal(images[0], images[2])
        assert np.array_equal(images[1], images[3])
