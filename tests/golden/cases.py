"""Golden-case definitions shared by the tests and ``--update-golden``.

Each case freezes a *small* deterministic input/output pair exercising
one hot path end to end:

* ``das`` — analytic ToF correction + boxcar DAS on a synthetic 8-element
  acquisition (covers ``TofPlan.apply`` and ``das_beamform``),
* ``tiny_vbf_forward`` — a miniature Tiny-VBF network's float forward
  pass (covers Dense / Conv-free attention GEMMs and the patch plumbing),
* ``qexec_20bits`` — the same network through the 20-bit quantized
  datapath (covers ``repro.quant.qexec``),
* ``qexec_schemes`` — the network with seeded nonzero biases through
  every Table-III scheme, once on the golden input and once on that
  input scaled by :data:`SATURATION_GAIN`, which drives dense outputs
  and the bias adds behind them past the Q5.x arithmetic limits.

The frozen ``.npz`` files under ``tests/golden/data/`` store the exact
inputs (including every model parameter) *and* outputs, so the test
compares byte-for-byte without depending on RNG or initializer
stability.  The fixtures were generated on the pre-backend-refactor
tree, which is what makes them a bit-for-bit regression net for the
``numpy`` reference backend.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.beamform.apodization import boxcar_rx_apodization
from repro.beamform.das import das_beamform
from repro.beamform.geometry import ImagingGrid
from repro.beamform.tof import analytic_tofc
from repro.models.tiny_vbf import TinyVbfConfig, build_tiny_vbf
from repro.quant.qexec import quantized_forward
from repro.quant.schemes import SCHEMES
from repro.ultrasound.probe import LinearProbe

DATA_DIR = Path(__file__).resolve().parent / "data"

#: (nz, nx) of the miniature imaging grid — kept tiny so the frozen
#: arrays stay a few kilobytes.
GOLDEN_IMAGE_SHAPE = (16, 12)
GOLDEN_N_ELEMENTS = 8
#: Input gain of the saturation half of ``qexec_schemes``: keeps the
#: input inside the Q5.x intermediate range (±32) but drives dense
#: outputs and bias adds past the arithmetic limits under every scheme.
SATURATION_GAIN = 30.0
# Long enough that the 4-10 mm round-trip delays (~260 samples at
# 20 MHz) land inside the record — otherwise the validity mask zeroes
# the whole cube and the golden never exercises the interpolation.
GOLDEN_N_SAMPLES = 320


def golden_probe() -> LinearProbe:
    return LinearProbe(
        n_elements=GOLDEN_N_ELEMENTS,
        pitch_m=0.3e-3,
        element_width_m=0.25e-3,
        center_frequency_hz=5.0e6,
        sampling_frequency_hz=20.0e6,
    )


def golden_grid() -> ImagingGrid:
    nz, nx = GOLDEN_IMAGE_SHAPE
    return ImagingGrid(
        x_m=np.linspace(-1.1e-3, 1.1e-3, nx),
        z_m=np.linspace(4.0e-3, 10.0e-3, nz),
    )


def golden_rf() -> np.ndarray:
    rng = np.random.default_rng(20240301)
    return rng.standard_normal((GOLDEN_N_SAMPLES, GOLDEN_N_ELEMENTS))


def golden_model():
    """A miniature (but structurally complete) Tiny-VBF network."""
    config = TinyVbfConfig(
        image_shape=GOLDEN_IMAGE_SHAPE,
        n_channels=GOLDEN_N_ELEMENTS,
        channel_projection=8,
        patch_size=(8, 6),
        d_model=16,
        n_heads=2,
        n_blocks=2,
        mlp_ratio=2.0,
        context_channels=4,
        head_hidden=8,
        seed=11,
    )
    return build_tiny_vbf(config)


def golden_model_input() -> np.ndarray:
    rng = np.random.default_rng(20240302)
    nz, nx = GOLDEN_IMAGE_SHAPE
    return rng.uniform(-1.0, 1.0, (1, nz, nx, 2 * GOLDEN_N_ELEMENTS))


def load_model_params(model, stored: dict) -> None:
    """Overwrite every parameter with its frozen value, in build order."""
    for index, param in enumerate(model.parameters()):
        frozen = stored[f"param_{index}"]
        if frozen.shape != param.value.shape:
            raise ValueError(
                f"golden parameter {index} shape {frozen.shape} does not "
                f"match model parameter {param.name} {param.value.shape}"
            )
        param.value = frozen.copy()


def dump_model_params(model) -> dict:
    return {
        f"param_{index}": param.value
        for index, param in enumerate(model.parameters())
    }


def biased_model_params(model) -> dict:
    """``dump_model_params`` with every bias drawn from U(-1, 1).

    ``golden_model`` initialises biases to zero, so the float and
    20-bit cases never add one; ``qexec_schemes`` needs the bias add
    (and its saturation) in the frozen bytes.
    """
    rng = np.random.default_rng(20240303)
    params = dump_model_params(model)
    for index, param in enumerate(model.parameters()):
        if param.name.endswith("/bias"):
            params[f"param_{index}"] = rng.uniform(
                -1.0, 1.0, param.value.shape
            )
    return params


# --------------------------------------------------------------------------
# Case computations (run on stored inputs by the test, on fresh inputs by
# --update-golden; both paths share these functions).
# --------------------------------------------------------------------------


def compute_das(rf: np.ndarray) -> dict:
    probe, grid = golden_probe(), golden_grid()
    tofc = analytic_tofc(rf, probe, grid)
    apodization = boxcar_rx_apodization(probe, grid, f_number=1.5)
    image = das_beamform(tofc, apodization)
    return {"tofc": tofc, "image": image}


def compute_tiny_vbf_forward(model, x: np.ndarray) -> dict:
    return {"output": model.forward(x, training=False)}


def compute_qexec_20bits(model, x: np.ndarray) -> dict:
    return {
        "output": quantized_forward(model.root, x, SCHEMES["20 bits"])
    }


#: Every quantized Table-III scheme, in ``SCHEMES`` order.
QEXEC_SCHEMES = tuple(
    name for name, scheme in SCHEMES.items() if not scheme.is_float
)


def scheme_key(name: str) -> str:
    """A scheme name as an ``.npz`` key suffix (``hybrid-1`` -> ``hybrid1``)."""
    return name.replace(" ", "").replace("-", "")


def compute_qexec_scheme(
    model, x: np.ndarray, x_saturating: np.ndarray, name: str
) -> dict:
    scheme, key = SCHEMES[name], scheme_key(name)
    return {
        f"output_{key}": quantized_forward(model.root, x, scheme),
        f"saturated_{key}": quantized_forward(
            model.root, x_saturating, scheme
        ),
    }


def generate_all(data_dir: Path | None = None) -> list[Path]:
    """(Re)write every golden file; returns the written paths.

    Always generates under the ``numpy`` reference backend — the
    fixtures *define* the reference bytes, so an ambient
    ``REPRO_BACKEND=numpy-fast`` (e.g. a shell left over from CI-matrix
    debugging) must not leak float32 results into them.
    """
    from repro.backend import use_backend

    with use_backend("numpy"):
        return _generate_all_reference(data_dir)


def _generate_all_reference(data_dir: Path | None) -> list[Path]:
    data_dir = DATA_DIR if data_dir is None else data_dir
    data_dir.mkdir(parents=True, exist_ok=True)
    written = []

    rf = golden_rf()
    path = data_dir / "das.npz"
    np.savez(path, rf=rf, **compute_das(rf))
    written.append(path)

    model = golden_model()
    x = golden_model_input()
    params = dump_model_params(model)
    path = data_dir / "tiny_vbf_forward.npz"
    np.savez(path, x=x, **params, **compute_tiny_vbf_forward(model, x))
    written.append(path)

    path = data_dir / "qexec_20bits.npz"
    np.savez(path, x=x, **params, **compute_qexec_20bits(model, x))
    written.append(path)

    biased = biased_model_params(model)
    load_model_params(model, biased)
    x_saturating = SATURATION_GAIN * x
    outputs = {}
    for name in QEXEC_SCHEMES:
        outputs.update(compute_qexec_scheme(model, x, x_saturating, name))
    path = data_dir / "qexec_schemes.npz"
    np.savez(path, x=x, x_saturating=x_saturating, **biased, **outputs)
    written.append(path)
    return written
