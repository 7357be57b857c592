"""Fixtures for the backend conformance suite.

``backend_name`` is parametrized over *every registered backend* at
collection time, so a new backend becomes certified by adding one
``register_backend`` call (e.g. from a plugin conftest) — every
contract test in this package runs against it automatically.

The test world is deliberately tiny (8 elements, 16x12 pixels, a
miniature but structurally complete Tiny-VBF) so the whole suite stays
in the tier-1 budget while covering every dispatched kernel.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.api import LearnedBeamformer
from repro.backend import available_backends, get_backend, use_backend
from repro.beamform.geometry import ImagingGrid
from repro.beamform.tof import clear_tof_plan_cache
from repro.models.registry import build_model
from repro.models.tiny_vbf import build_tiny_vbf
from repro.quant import SCHEMES, QuantizedModel, pe_rounding
from repro.ultrasound.probe import LinearProbe
from repro.ultrasound.wavefield import plane_wave_tx_delay, rx_delay

from tests.golden import cases


@pytest.fixture(params=available_backends())
def backend_name(request) -> str:
    return request.param


@pytest.fixture
def backend(backend_name):
    return get_backend(backend_name)


@pytest.fixture(autouse=True)
def _fresh_plan_cache():
    clear_tof_plan_cache()
    yield
    clear_tof_plan_cache()


@dataclass(frozen=True)
class FakeDataset:
    """The minimal dataset surface every Beamformer consumes."""

    rf: np.ndarray
    probe: LinearProbe
    grid: ImagingGrid
    angle_rad: float = 0.0
    sound_speed_m_s: float = 1540.0
    t_start_s: float = 0.0
    name: str = "conformance"


def point_target_rf(
    probe: LinearProbe,
    x0: float,
    z0: float,
    n_samples: int,
    sound_speed_m_s: float = 1540.0,
) -> np.ndarray:
    """Synthesize the echo of one point scatterer, channel by channel.

    Uses the *same* delay model DAS assumes (plane-wave transmit +
    per-element receive), so a correct gather/interpolation kernel must
    focus the envelope onto the scatterer pixel.
    """
    fs = probe.sampling_frequency_hz
    f0 = probe.center_frequency_hz
    tau = plane_wave_tx_delay(
        np.array([x0]), np.array([z0]), 0.0, sound_speed_m_s
    )[0] + rx_delay(
        np.array([x0]), np.array([z0]),
        probe.element_positions_m, sound_speed_m_s,
    )[0]  # (E,)
    t = np.arange(n_samples)[:, np.newaxis] / fs
    dt = t - tau[np.newaxis, :]
    envelope = np.exp(-0.5 * (dt / (1.5 / f0)) ** 2)
    return envelope * np.cos(2.0 * np.pi * f0 * dt)


@pytest.fixture(scope="session")
def tiny_world():
    """Probe/grid/frames shared by the conformance tests (read-only)."""
    probe = cases.golden_probe()
    grid = cases.golden_grid()
    stream = np.random.default_rng(777)
    base = FakeDataset(
        rf=stream.standard_normal(
            (cases.GOLDEN_N_SAMPLES, probe.n_elements)
        ),
        probe=probe,
        grid=grid,
    )
    frames = [base] + [
        replace(
            base,
            rf=base.rf
            * (1.0 + 0.02 * stream.standard_normal(base.rf.shape)),
        )
        for _ in range(3)
    ]
    return {"probe": probe, "grid": grid, "frames": frames}


@pytest.fixture(scope="session")
def tiny_learned():
    """A miniature Tiny-VBF beamformer factory (fresh per backend)."""
    model = cases.golden_model()

    def _make(backend_name: str) -> LearnedBeamformer:
        return LearnedBeamformer(
            "tiny_vbf", model=model, backend=backend_name
        )

    return _make


@pytest.fixture(scope="session")
def serving_tiny_vbf():
    """The small Tiny-VBF that serving builds, and a seeded input."""
    model = build_model("tiny_vbf", "small", seed=0)
    x = np.random.default_rng(0).uniform(
        -1.0, 1.0, (1, *model.root.config.frame_shape)
    )
    return model, x


@pytest.fixture(scope="session")
def quantized_reference(serving_tiny_vbf):
    """Per scheme: the ``numpy`` quantized forward and the round-at-end
    PE emulator's, each computed once."""
    model, x = serving_tiny_vbf
    computed = {}

    def _get(name: str) -> tuple[np.ndarray, np.ndarray]:
        if name not in computed:
            scheme = SCHEMES[name]
            with use_backend("numpy"):
                reference = QuantizedModel(model, scheme)(x)
            with pe_rounding("round_at_end"):
                oracle = QuantizedModel(model, scheme)(x)
            computed[name] = reference, oracle
        return computed[name]

    return _get


@pytest.fixture(scope="session")
def per_level_reference():
    """The golden network cut into 16 tokens instead of 4, its input,
    and per scheme the ``numpy`` result of its ``pe="emu-per-level"``
    forward, computed once.

    16 tokens give each softmax row enough scores that a float32
    softmax changes the quantized result; the golden network's 4 do
    not.
    """
    config = replace(cases.golden_model().root.config, patch_size=(4, 3))
    model = build_tiny_vbf(config)
    x = cases.golden_model_input()
    computed = {}

    def _get(name: str) -> np.ndarray:
        if name not in computed:
            with use_backend("numpy"):
                computed[name] = QuantizedModel(
                    model, SCHEMES[name], pe="emu-per-level"
                )(x)
        return computed[name]

    return model, x, _get
