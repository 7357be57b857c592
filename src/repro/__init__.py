"""repro: reproduction of Tiny-VBF (DATE 2024).

A vision-transformer ultrasound beamformer for single-angle plane-wave
imaging, built with every substrate it depends on:

* :mod:`repro.api` — the unified :class:`Beamformer` interface and
  ``create_beamformer`` factory over every datapath (classical, learned,
  FPGA-quantized) with plan-cached ToF geometry,
* :mod:`repro.backend` — pluggable compute backends for the hot paths
  (``numpy`` reference, ``numpy-fast`` float32) behind one registry,
* :mod:`repro.serve` — streaming engine: frame sources, a worker-thread
  executor that batches same-geometry frames from one bounded ingest
  queue with backpressure, telemetry and a control loop,
* :mod:`repro.gateway` — TCP serving frontend: versioned wire protocol,
  session server with admission control, pure-Python client,
* :mod:`repro.ultrasound` — plane-wave acquisition simulator and
  PICMUS-style dataset presets,
* :mod:`repro.beamform` — ToF correction, DAS, MVDR, compounding, B-mode,
* :mod:`repro.nn` — a from-scratch NumPy deep-learning framework,
* :mod:`repro.models` — Tiny-VBF, Tiny-CNN and FCNN beamformers,
* :mod:`repro.quant` — fixed-point quantization schemes (Table III),
* :mod:`repro.fpga` — cycle-level accelerator simulator + resource model,
* :mod:`repro.metrics` — CR/CNR/GCNR, FWHM resolution, GOPs/frame,
* :mod:`repro.eval` — experiment runners regenerating the paper's tables
  and figures,
* :mod:`repro.training` — MVDR-supervised training pipeline with a weight
  cache.

See docs/architecture.md for the layer map, DESIGN.md for the
per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
"""

__version__ = "1.0.0"

__all__ = [
    "api",
    "backend",
    "gateway",
    "serve",
    "ultrasound",
    "beamform",
    "nn",
    "models",
    "quant",
    "fpga",
    "metrics",
    "eval",
    "training",
    "utils",
]
