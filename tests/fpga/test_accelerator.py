"""Unit tests for the end-to-end accelerator simulation."""

import numpy as np
import pytest

from repro.fpga.accelerator import TinyVbfAccelerator
from repro.models.tiny_vbf import TinyVbfConfig, build_tiny_vbf
from repro.models.registry import build_model
from repro.quant.qexec import QuantizedModel, quantized_forward
from repro.quant.schemes import FLOAT, HYBRID1, SCHEMES


@pytest.fixture(scope="module")
def tiny_model():
    config = TinyVbfConfig(
        image_shape=(16, 8),
        n_channels=4,
        channel_projection=6,
        channel_hidden=8,
        patch_size=(4, 4),
        d_model=16,
        n_heads=2,
        n_blocks=2,
        context_channels=3,
        head_hidden=12,
        seed=0,
    )
    return build_tiny_vbf(config)


class TestAccelerator:
    def test_rejects_non_tiny_vbf_models(self):
        model = build_model("fcnn", "small")
        with pytest.raises(TypeError):
            TinyVbfAccelerator(model, HYBRID1)

    def test_run_matches_quantized_executor(self, tiny_model):
        x = np.random.default_rng(0).uniform(-1, 1, (1, 16, 8, 8))
        assert np.array_equal(
            QuantizedModel(tiny_model, HYBRID1)(x),
            quantized_forward(tiny_model.root, x, HYBRID1),
        )

    def test_float_run_matches_reference_model(self, tiny_model):
        x = np.random.default_rng(1).uniform(-1, 1, (1, 16, 8, 8))
        assert np.allclose(
            QuantizedModel(tiny_model, FLOAT)(x), tiny_model.forward(x)
        )

    def test_report_contains_all_sections(self, tiny_model):
        report = TinyVbfAccelerator(tiny_model, HYBRID1).report()
        text = report.summary()
        assert "hybrid-1" in text
        assert "BRAM plan" in text
        assert "latency" in text

    def test_memory_plan_shrinks_with_narrow_scheme(self, tiny_model):
        wide = TinyVbfAccelerator(tiny_model, SCHEMES["24 bits"])
        narrow = TinyVbfAccelerator(tiny_model, SCHEMES["16 bits"])
        assert (
            narrow.plan_memory().total_blocks
            < wide.plan_memory().total_blocks
        )

    def test_float_memory_plan_largest(self, tiny_model):
        float_plan = TinyVbfAccelerator(tiny_model, FLOAT).plan_memory()
        hybrid_plan = TinyVbfAccelerator(tiny_model, HYBRID1).plan_memory()
        assert hybrid_plan.total_blocks < float_plan.total_blocks

    def test_latency_consistent_with_schedule(self, tiny_model):
        report = TinyVbfAccelerator(tiny_model, HYBRID1).report()
        assert report.latency_s == report.schedule.latency_s
