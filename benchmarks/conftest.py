"""Shared benchmark fixtures.

Datasets are simulated once per session; trained models come from the
weight cache (`artifacts/weights/`, trained on first use).  Every bench
writes its paper-vs-measured table to ``artifacts/results/<name>.txt``
so EXPERIMENTS.md can reference frozen outputs.

Determinism: no fixture here may construct its own unseeded
:class:`numpy.random.Generator`.  Random data comes from the shared
per-test ``rng`` fixture (root ``conftest.py``, node-id seeded — stable
across reruns and orderings); frame perturbation for the throughput
scripts lives in ``bench_throughput.make_frames`` (explicitly seeded).
"""

from pathlib import Path

import pytest

from repro.api import create_beamformer
from repro.eval.experiments import eval_beamformers, load_eval_models
from repro.quant.schemes import SCHEMES
from repro.ultrasound import (
    phantom_contrast,
    phantom_resolution,
    simulation_contrast,
    simulation_resolution,
)

_RESULTS_DIR = Path(__file__).resolve().parents[1] / "artifacts" / "results"


@pytest.fixture(scope="session")
def sim_contrast():
    return simulation_contrast()


@pytest.fixture(scope="session")
def sim_resolution():
    return simulation_resolution()


@pytest.fixture(scope="session")
def vitro_contrast():
    return phantom_contrast()


@pytest.fixture(scope="session")
def vitro_resolution():
    return phantom_resolution()


@pytest.fixture(scope="session")
def models():
    """Trained learned beamformers (cached weights)."""
    return load_eval_models(("tiny_vbf", "tiny_cnn", "fcnn"))


@pytest.fixture(scope="session")
def beamformers(models):
    """Unified-API beamformers (classical + learned) for the benches."""
    return eval_beamformers(
        ("das", "mvdr", "tiny_vbf", "tiny_cnn", "fcnn"), models
    )


@pytest.fixture(scope="session")
def quantized_beamformers(models):
    """Tiny-VBF through the FPGA datapath, one per Table-III scheme."""
    return {
        name: create_beamformer(f"tiny_vbf@{name}", model=models["tiny_vbf"])
        for name in SCHEMES
    }


@pytest.fixture(scope="session")
def figures_dir():
    path = _RESULTS_DIR.parent / "bench_figures"
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture(scope="session")
def record_result():
    """Write a named result table to artifacts/results and echo it."""
    _RESULTS_DIR.mkdir(parents=True, exist_ok=True)

    def _record(name: str, text: str) -> Path:
        path = _RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[recorded to {path}]")
        return path

    return _record
