"""Training pipeline: MVDR-supervised learning with a weight cache.

Mirrors the paper's recipe (Section III): single-angle ToFC channel data
in, MVDR-beamformed IQ out, MSE loss before log compression, Adam with a
cyclic polynomial learning-rate decay, batch size 10 (scaled down to the
corpus size here).  Trained weights are cached under ``artifacts/`` so
tests, benches and examples reuse one deterministic training run.
"""

from repro.training.groundtruth import FramePair, prepare_frame
from repro.training.pipeline import (
    TrainingResult,
    assemble_arrays,
    train_beamformer,
)
from repro.training.cache import (
    cache_dir,
    get_trained_model,
    trained_weights_path,
)

__all__ = [
    "FramePair",
    "prepare_frame",
    "TrainingResult",
    "assemble_arrays",
    "train_beamformer",
    "cache_dir",
    "get_trained_model",
    "trained_weights_path",
]
