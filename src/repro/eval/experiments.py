"""Experiment runners over the PICMUS-style presets.

Every runner takes a dataset and a list of beamformer specs and returns
per-beamformer metrics.  Beamformers are built through the unified
:mod:`repro.api` factory:

* ``das`` / ``mvdr`` — classical chain (:mod:`repro.beamform`),
* ``tiny_vbf`` / ``tiny_cnn`` / ``fcnn`` — trained models from the
  weight cache (:mod:`repro.training.cache`),
* ``tiny_vbf@<scheme>`` — Tiny-VBF through the simulated FPGA datapath
  for every scheme of Table III.
"""

from __future__ import annotations

from repro.api import (
    Beamformer,
    QuantizedBeamformer,
    create_beamformer,
    parse_spec,
)
from repro.beamform.envelope import envelope_detect
from repro.metrics.contrast import ContrastMetrics, dataset_contrast
from repro.metrics.resolution import ResolutionMetrics, dataset_resolution
from repro.models.registry import MODEL_KINDS
from repro.nn import Model
from repro.training.cache import get_trained_model

# Paper evaluation order (Tables I and II).
EVAL_BEAMFORMERS = ("das", "mvdr", "tiny_cnn", "tiny_vbf")


def load_eval_models(
    kinds: tuple[str, ...] = ("tiny_vbf", "tiny_cnn", "fcnn"),
    scale: str = "small",
    seed: int = 0,
) -> dict[str, Model]:
    """Load (training on first use) the cached learned beamformers."""
    return {
        kind: get_trained_model(kind, scale=scale, seed=seed)
        for kind in kinds
    }


def eval_beamformers(
    methods: tuple[str, ...] = EVAL_BEAMFORMERS,
    models: dict[str, Model] | None = None,
) -> dict[str, Beamformer]:
    """Build the evaluation beamformers through the unified factory.

    ``models`` optionally supplies pre-trained models keyed by kind so a
    bench session can share one weight-cache load across runners.  When
    a ``models`` dict is given it must cover every learned method —
    a missing entry raises instead of silently training a default model.
    """
    beamformers = {}
    for method in methods:
        kind, _ = parse_spec(method)  # "tiny_vbf@float" -> "tiny_vbf"
        model = None
        if models is not None and kind in MODEL_KINDS:
            if kind not in models:
                raise ValueError(
                    f"model {kind!r} not in supplied models"
                )
            model = models[kind]
        beamformers[method] = create_beamformer(method, model=model)
    return beamformers


def run_contrast_experiment(
    dataset,
    methods: tuple[str, ...] = EVAL_BEAMFORMERS,
    models: dict[str, Model] | None = None,
) -> dict[str, ContrastMetrics]:
    """CR/CNR/GCNR per beamformer on a contrast dataset (Table I)."""
    results = {}
    for method, beamformer in eval_beamformers(methods, models).items():
        iq = beamformer.beamform(dataset)
        results[method] = dataset_contrast(envelope_detect(iq), dataset)
    return results


def run_resolution_experiment(
    dataset,
    methods: tuple[str, ...] = EVAL_BEAMFORMERS,
    models: dict[str, Model] | None = None,
) -> dict[str, ResolutionMetrics]:
    """Axial/lateral FWHM per beamformer on a resolution dataset
    (Table II)."""
    results = {}
    for method, beamformer in eval_beamformers(methods, models).items():
        iq = beamformer.beamform(dataset)
        results[method] = dataset_resolution(envelope_detect(iq), dataset)
    return results


def run_quantized_experiments(
    contrast_dataset,
    resolution_dataset,
    model: Model | None = None,
    scheme_names: tuple[str, ...] = (
        "float", "24 bits", "20 bits", "hybrid-1", "hybrid-2",
    ),
) -> dict[str, dict]:
    """Tables IV and V: per-scheme contrast and resolution of Tiny-VBF.

    Returns ``{scheme: {"contrast": ContrastMetrics,
    "resolution": ResolutionMetrics}}``.
    """
    model = model or get_trained_model("tiny_vbf")
    results: dict[str, dict] = {}
    for name in scheme_names:
        beamformer = QuantizedBeamformer(name, model=model)
        contrast_env = envelope_detect(
            beamformer.beamform(contrast_dataset)
        )
        resolution_env = envelope_detect(
            beamformer.beamform(resolution_dataset)
        )
        results[name] = {
            "contrast": dataset_contrast(contrast_env, contrast_dataset),
            "resolution": dataset_resolution(
                resolution_env, resolution_dataset
            ),
        }
    return results
