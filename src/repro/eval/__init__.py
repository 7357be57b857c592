"""Evaluation harness: regenerate the paper's tables and figures.

* :mod:`repro.eval.experiments` — run every beamformer (classical and
  learned, float and quantized) over the PICMUS-style presets and
  collect contrast/resolution metrics,
* :mod:`repro.eval.tables` — paper-style table formatting plus the
  published reference values for side-by-side comparison,
* :mod:`repro.eval.figures` — B-mode image (PGM) and lateral-profile
  (CSV) export for the figure benches.
"""

from repro.eval.experiments import (
    EVAL_BEAMFORMERS,
    eval_beamformers,
    load_eval_models,
    run_contrast_experiment,
    run_quantized_experiments,
    run_resolution_experiment,
)
from repro.eval.tables import (
    PAPER_TABLE_I,
    PAPER_TABLE_II,
    PAPER_TABLE_IV,
    PAPER_TABLE_V,
    format_contrast_table,
    format_resolution_table,
)
from repro.eval.figures import export_bmode_images, export_lateral_profiles

__all__ = [
    "EVAL_BEAMFORMERS",
    "eval_beamformers",
    "load_eval_models",
    "run_contrast_experiment",
    "run_resolution_experiment",
    "run_quantized_experiments",
    "PAPER_TABLE_I",
    "PAPER_TABLE_II",
    "PAPER_TABLE_IV",
    "PAPER_TABLE_V",
    "format_contrast_table",
    "format_resolution_table",
    "export_bmode_images",
    "export_lateral_profiles",
]
