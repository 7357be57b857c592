"""Unit tests for quantization schemes and quantized execution."""

import numpy as np
import pytest

from repro.models.tiny_vbf import TinyVbfConfig, build_tiny_vbf
from repro.nn import Dense, ReLU, Sequential, Softmax
from repro.quant import (
    FLOAT,
    HYBRID1,
    HYBRID2,
    SCHEMES,
    FixedPointFormat,
    QuantizationScheme,
    QuantizedModel,
    quantized_forward,
    uniform_scheme,
)
from tests.quant.test_fixed_point import textbook


class TestSchemes:
    def test_table_iii_hybrid1(self):
        assert HYBRID1.weights.total_bits == 8
        assert HYBRID1.softmax.total_bits == 24
        assert HYBRID1.arithmetic.total_bits == 20
        assert HYBRID1.intermediate.total_bits == 20

    def test_table_iii_hybrid2(self):
        assert HYBRID2.weights.total_bits == 8
        assert HYBRID2.softmax.total_bits == 24
        assert HYBRID2.arithmetic.total_bits == 16
        assert HYBRID2.intermediate.total_bits == 16

    def test_float_scheme_flag(self):
        assert FLOAT.is_float
        assert not HYBRID1.is_float

    def test_registry_contains_paper_schemes(self):
        assert set(SCHEMES) == {
            "float", "24 bits", "20 bits", "16 bits",
            "hybrid-1", "hybrid-2",
        }

    def test_uniform_rejects_tiny_widths(self):
        with pytest.raises(ValueError):
            uniform_scheme(4)


def _tiny_model():
    config = TinyVbfConfig(
        image_shape=(16, 8),
        n_channels=4,
        channel_projection=4,
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


class TestQuantizedForward:
    @pytest.fixture(scope="class")
    def model_and_input(self):
        model = _tiny_model()
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, (1, 16, 8, 8))
        return model, x

    def test_float_scheme_matches_reference(self, model_and_input):
        model, x = model_and_input
        reference = model.forward(x)
        quantized = quantized_forward(model.root, x, FLOAT)
        assert np.array_equal(reference, quantized)

    def test_wide_quantization_close_to_float(self, model_and_input):
        model, x = model_and_input
        reference = model.forward(x)
        out24 = quantized_forward(model.root, x, SCHEMES["24 bits"])
        scale = np.abs(reference).max()
        assert np.abs(out24 - reference).max() < 0.02 * scale

    def test_error_grows_as_width_shrinks(self, model_and_input):
        model, x = model_and_input
        reference = model.forward(x)
        errors = {}
        for name in ("24 bits", "20 bits", "16 bits"):
            out = quantized_forward(model.root, x, SCHEMES[name])
            errors[name] = np.abs(out - reference).mean()
        assert errors["24 bits"] <= errors["20 bits"] <= errors["16 bits"]
        assert errors["16 bits"] > errors["24 bits"]

    def test_hybrid1_no_worse_than_hybrid2(self, model_and_input):
        # Both hybrids share 8-bit weights and 24-bit softmax; Hybrid-1's
        # wider (20 vs 16 bit) arithmetic must not increase the error.
        model, x = model_and_input
        reference = model.forward(x)
        error1 = np.abs(
            quantized_forward(model.root, x, HYBRID1) - reference
        ).mean()
        error2 = np.abs(
            quantized_forward(model.root, x, HYBRID2) - reference
        ).mean()
        assert error1 <= error2 * 1.05

    def test_outputs_on_intermediate_grid(self, model_and_input):
        model, x = model_and_input
        out = quantized_forward(model.root, x, HYBRID2)
        fmt = HYBRID2.intermediate
        steps = out / fmt.resolution
        assert np.allclose(steps, np.round(steps), atol=1e-9)

    def test_quantized_model_wrapper(self, model_and_input):
        model, x = model_and_input
        wrapped = QuantizedModel(model, SCHEMES["20 bits"])
        assert np.array_equal(
            wrapped(x), quantized_forward(model.root, x, SCHEMES["20 bits"])
        )

    def test_softmax_layer_rule(self):
        layer = Softmax()
        x = np.random.default_rng(1).normal(size=(3, 5))
        out = quantized_forward(layer, x, HYBRID1)
        fmt = HYBRID1.softmax
        steps = out / fmt.resolution
        assert np.allclose(steps, np.round(steps), atol=1e-9)

    def test_sequential_dense_relu(self):
        net = Sequential([Dense(4, 3, seed=0), ReLU()])
        x = np.random.default_rng(2).uniform(-1, 1, (5, 4))
        out = quantized_forward(net, x, SCHEMES["16 bits"])
        assert out.shape == (5, 3)
        assert np.all(out >= 0)

    def test_unknown_layer_raises(self):
        class Mystery:
            pass

        with pytest.raises(TypeError):
            quantized_forward(Mystery(), np.zeros((1, 2)), HYBRID1)


class TestGemmEpilogue:
    """The in-place requantization at the GEMM sites."""

    def test_intermediate_narrower_than_arithmetic(self):
        # No built-in scheme has intermediate != arithmetic, so only this
        # case takes the epilogue's second requantization.
        scheme = QuantizationScheme(
            name="custom",
            weights=FixedPointFormat(8, 6),
            softmax=FixedPointFormat(16, 14),
            arithmetic=FixedPointFormat(20, 14),
            intermediate=FixedPointFormat(12, 8),
        )
        layer = Dense(6, 5, seed=3)
        rng = np.random.default_rng(3)
        layer.bias.value = rng.uniform(-8.0, 8.0, 5)
        x = rng.uniform(-60.0, 60.0, (2, 7, 6))
        weight = textbook(scheme.weights, layer.weight.value)
        bias = textbook(scheme.arithmetic, layer.bias.value)
        gemm = textbook(scheme.arithmetic, x @ weight)
        expected = textbook(
            scheme.intermediate,
            textbook(scheme.arithmetic, gemm + bias),
        )
        out = quantized_forward(layer, x, scheme)
        assert out.tobytes() == expected.tobytes()
        # Both saturations and the narrow write-back are exercised.
        limit = scheme.arithmetic.max_value
        assert (np.abs(x @ weight) > limit).any()
        assert (np.abs(gemm + bias) > limit).any()
        assert (np.abs(out) == scheme.intermediate.max_value).any()

    @pytest.mark.parametrize("pe", [None, "emu-per-level"])
    @pytest.mark.parametrize(
        "name", [name for name, s in SCHEMES.items() if not s.is_float]
    )
    def test_forward_writes_no_input_or_parameter(self, name, pe):
        model = _tiny_model()
        rng = np.random.default_rng(4)
        for param in model.parameters():
            if param.name.endswith("/bias"):
                param.value = rng.uniform(-1.0, 1.0, param.value.shape)
        x = rng.uniform(-20.0, 20.0, (1, 16, 8, 8))
        before = [param.value.copy() for param in model.parameters()]
        x_before = x.copy()
        QuantizedModel(model, SCHEMES[name], pe=pe)(x)
        assert x.tobytes() == x_before.tobytes()
        for param, value in zip(model.parameters(), before):
            assert param.value.tobytes() == value.tobytes(), param.name
