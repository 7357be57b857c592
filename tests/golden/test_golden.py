"""Byte-level golden regression tests for the hot paths.

The frozen ``.npz`` pairs under ``data/`` were generated on the
pre-backend-refactor tree (``qexec_schemes`` on the tree before the
quantized GEMM epilogue went in place), so these tests pin the
``numpy`` reference backend to the historical numerics *bit-for-bit* —
any refactor that changes a single ULP anywhere in ToF correction, DAS,
the float forward pass or the quantized datapath of any Table-III
scheme, saturation included, fails here with a byte diff.

Regenerate intentionally with::

    pytest tests/golden --update-golden

(the run reports the regenerated cases as skips; commit the new data
files together with the change that justified them).
"""

import numpy as np
import pytest

from repro.backend import use_backend

from . import cases


@pytest.fixture
def update_golden(request) -> bool:
    return request.config.getoption("--update-golden")


def _assert_frozen(name: str, computed: dict, update: bool) -> None:
    path = cases.DATA_DIR / f"{name}.npz"
    if update:
        pytest.skip(f"regenerated {path.name} via --update-golden")
    stored = np.load(path)
    for key, value in computed.items():
        frozen = stored[key]
        assert frozen.dtype == value.dtype, (
            f"{name}/{key}: dtype drifted {frozen.dtype} -> {value.dtype}"
        )
        assert frozen.shape == value.shape, (
            f"{name}/{key}: shape drifted {frozen.shape} -> {value.shape}"
        )
        assert frozen.tobytes() == value.tobytes(), (
            f"{name}/{key}: byte-level mismatch (max abs diff "
            f"{np.abs(np.asarray(value) - frozen).max():.3e})"
        )


@pytest.fixture(autouse=True, scope="module")
def _regenerate_if_requested(request):
    # Module-scoped: one regeneration for the whole file, not one per
    # test.  generate_all itself pins the numpy reference backend.
    if request.config.getoption("--update-golden"):
        cases.generate_all()
    yield


@pytest.fixture(scope="module")
def frozen_model():
    """The miniature Tiny-VBF with its frozen parameters loaded."""
    stored = np.load(cases.DATA_DIR / "tiny_vbf_forward.npz")
    model = cases.golden_model()
    cases.load_model_params(model, stored)
    return model


@pytest.fixture(scope="module")
def biased_model():
    """The miniature Tiny-VBF with ``qexec_schemes``' parameters."""
    stored = np.load(cases.DATA_DIR / "qexec_schemes.npz")
    model = cases.golden_model()
    cases.load_model_params(model, stored)
    return model


class TestGoldenNumpyBackend:
    """The reference backend reproduces the pre-refactor bytes."""

    def test_das(self, update_golden):
        stored = np.load(cases.DATA_DIR / "das.npz")
        with use_backend("numpy"):
            computed = cases.compute_das(stored["rf"])
        _assert_frozen("das", computed, update_golden)

    def test_das_cube_is_not_degenerate(self):
        stored = np.load(cases.DATA_DIR / "das.npz")
        # Guards the golden itself: an all-invalid delay mask would
        # zero the cube and silently stop testing the interpolation.
        assert (np.abs(stored["tofc"]) > 0).mean() > 0.9

    def test_tiny_vbf_forward(self, update_golden, frozen_model):
        stored = np.load(cases.DATA_DIR / "tiny_vbf_forward.npz")
        with use_backend("numpy"):
            computed = cases.compute_tiny_vbf_forward(
                frozen_model, stored["x"]
            )
        _assert_frozen("tiny_vbf_forward", computed, update_golden)

    def test_qexec_20bits(self, update_golden, frozen_model):
        stored = np.load(cases.DATA_DIR / "qexec_20bits.npz")
        with use_backend("numpy"):
            computed = cases.compute_qexec_20bits(
                frozen_model, stored["x"]
            )
        _assert_frozen("qexec_20bits", computed, update_golden)

    @pytest.mark.parametrize("name", cases.QEXEC_SCHEMES)
    def test_qexec_schemes(self, name, update_golden, biased_model):
        stored = np.load(cases.DATA_DIR / "qexec_schemes.npz")
        with use_backend("numpy"):
            computed = cases.compute_qexec_scheme(
                biased_model, stored["x"], stored["x_saturating"], name
            )
        _assert_frozen("qexec_schemes", computed, update_golden)

    @pytest.mark.parametrize("name", cases.QEXEC_SCHEMES)
    def test_saturation_case_saturates(self, name):
        # Guards the golden itself: the scaled input must push the first
        # dense layer's GEMM and its bias add past the arithmetic limits
        # (plain step arithmetic, independent of qexec).
        from repro.quant.schemes import SCHEMES

        stored = np.load(cases.DATA_DIR / "qexec_schemes.npz")
        scheme = SCHEMES[name]

        def steps(fmt, values):
            return np.round(values / fmt.resolution)

        x = steps(scheme.intermediate, stored["x_saturating"])
        weight = steps(scheme.weights, stored["param_0"])
        gemm = steps(
            scheme.arithmetic,
            (x * scheme.intermediate.resolution)
            @ (weight * scheme.weights.resolution),
        )
        bits = scheme.arithmetic.total_bits
        low, high = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
        summed = np.clip(gemm, low, high) + steps(
            scheme.arithmetic, stored["param_1"]
        )
        assert ((gemm < low) | (gemm > high)).any()
        assert ((summed < low) | (summed > high)).any()

    def test_qexec_output_is_quantized_grid(self, frozen_model):
        from repro.quant.schemes import SCHEMES

        stored = np.load(cases.DATA_DIR / "qexec_20bits.npz")
        fmt = SCHEMES["20 bits"].intermediate
        out = stored["output"]
        assert np.array_equal(fmt.quantize(out), out)
