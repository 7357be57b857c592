"""Concrete :class:`~repro.api.base.Beamformer` adapters.

====================  ===================================================
adapter               wraps
====================  ===================================================
``DasBeamformer``     boxcar-apodized Delay-and-Sum (paper baseline)
``MvdrBeamformer``    MVDR with spatial smoothing + diagonal loading
``LearnedBeamformer`` a trained model (Tiny-VBF / Tiny-CNN / FCNN) plus
                      its input layout, loaded from the weight cache
``QuantizedBeamformer``  Tiny-VBF through the simulated FPGA datapath
                      (:class:`~repro.quant.qexec.QuantizedModel`)
                      under a Table-III quantization scheme
====================  ===================================================

All adapters prepare their input through the shared plan-cached helpers
in :mod:`repro.api.base`, so the float and quantized datapaths see the
same normalization (including the silent-frame guard) and repeated
frames on one geometry never recompute the delay tables.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.backend import Array, ArrayBackend, resolve_backend
from repro.api.base import (
    Beamformer,
    dataset_tofc,
    group_indices_by_geometry,
    normalized_tofc,
)
from repro.beamform.apodization import boxcar_rx_apodization
from repro.beamform.das import das_beamform
from repro.beamform.mvdr import MvdrConfig, mvdr_beamform
from repro.models.common import stacked_to_complex
from repro.models.registry import MODEL_KINDS, model_input
from repro.nn import Model
from repro.quant.schemes import SCHEMES, QuantizationScheme
from repro.utils.validation import require_in


def _backend_label(backend: "str | ArrayBackend | None") -> str:
    """Human-readable backend identity for :meth:`Beamformer.describe`."""
    if backend is None:
        return "default"
    return backend.name if isinstance(backend, ArrayBackend) else backend


def _resolve_model(
    kind: str, model: Model | None, scale: str, seed: int
) -> Model:
    """Use the supplied model or load (training on first use) the cached
    one.  Imported lazily: repro.training pulls this package back in."""
    if model is not None:
        return model
    from repro.training.cache import get_trained_model

    trained: Model = get_trained_model(kind, scale=scale, seed=seed)
    return trained


class DasBeamformer(Beamformer):
    """Boxcar-apodized Delay-and-Sum over the cached ToF plan.

    Boxcar is the paper's data-independent DAS baseline; its higher
    sidelobes are exactly the contrast deficit the learned beamformers
    are meant to fix.
    """

    name = "das"

    def __init__(
        self,
        f_number: float = 1.75,
        backend: "str | ArrayBackend | None" = None,
    ) -> None:
        self.f_number = f_number
        self.backend = resolve_backend(backend)
        self._apod_key: tuple[Any, ...] | None = None
        self._apod: Array | None = None

    def _apodization(self, dataset: Any) -> Array:
        key = (
            dataset.probe,
            dataset.grid.x_m.tobytes(),
            dataset.grid.z_m.tobytes(),
            self.f_number,
        )
        if key != self._apod_key:
            self._apod = boxcar_rx_apodization(
                dataset.probe, dataset.grid, f_number=self.f_number
            )
            self._apod_key = key
        apod = self._apod
        assert apod is not None  # set whenever _apod_key matches
        return apod

    def beamform(self, dataset: Any) -> Array:
        """Apodized delay-and-sum of one dataset -> complex IQ image."""
        with self.backend_scope():
            image: Array = das_beamform(
                dataset_tofc(dataset), self._apodization(dataset)
            )
            return image

    def describe(self) -> dict[str, Any]:
        """Identity and knobs: ``{name, backend, f_number, ...}``."""
        return {"name": self.name, "backend": "classical",
                "compute_backend": _backend_label(self.backend),
                "f_number": self.f_number}


class MvdrBeamformer(Beamformer):
    """Minimum-variance beamformer (the paper's training ground truth)."""

    name = "mvdr"

    def __init__(
        self,
        config: MvdrConfig | None = None,
        backend: "str | ArrayBackend | None" = None,
    ) -> None:
        self.config = config
        self.backend = resolve_backend(backend)

    def beamform(self, dataset: Any) -> Array:
        """Minimum-variance beamform of one dataset -> complex IQ."""
        with self.backend_scope():
            image: Array = mvdr_beamform(dataset_tofc(dataset), self.config)
            return image

    def describe(self) -> dict[str, Any]:
        """Identity and the effective :class:`MvdrConfig` knobs."""
        config = self.config or MvdrConfig()
        return {
            "name": self.name,
            "backend": "classical",
            "compute_backend": _backend_label(self.backend),
            "subaperture": config.subaperture,
            "diagonal_loading": config.diagonal_loading,
            "axial_smoothing": config.axial_smoothing,
        }


class LearnedBeamformer(Beamformer):
    """A trained model plus its input layout behind the uniform API.

    The model-kind string is bound at construction, so a
    ``LearnedBeamformer`` can be passed anywhere a classical one can.
    """

    def __init__(
        self,
        kind: str,
        model: Model | None = None,
        scale: str = "small",
        seed: int = 0,
        backend: "str | ArrayBackend | None" = None,
    ) -> None:
        require_in("kind", kind, MODEL_KINDS)
        self.kind = kind
        self.name = kind
        self.scale = scale
        self.seed = seed
        self.backend = resolve_backend(backend)
        self.model = _resolve_model(kind, model, scale, seed)

    def _forward(self, x: Array) -> Array:
        y: Array = self.model.forward(x, training=False)
        return y

    def beamform(self, dataset: Any) -> Array:
        """Model-predicted complex IQ image for one dataset."""
        with self.backend_scope():
            x = model_input(self.kind, normalized_tofc(dataset))
            image: Array = stacked_to_complex(self._forward(x)[0])
            return image

    def beamform_batch(self, datasets: Sequence[Any]) -> list[Array]:
        """Stack same-geometry frames through one model forward pass.

        Frames are still normalized per frame (the training convention).
        Mixed-geometry batches are partitioned by
        :func:`~repro.api.base.group_indices_by_geometry` and each group
        gets its own stacked forward, so plan locality and batch
        execution survive interleaved geometries; results come back in
        input order.
        """
        datasets = list(datasets)
        images: dict[int, Array] = {}
        with self.backend_scope():
            for group in group_indices_by_geometry(datasets):
                if len(group) == 1:
                    images[group[0]] = self.beamform(datasets[group[0]])
                    continue
                stacked = np.stack(
                    [normalized_tofc(datasets[index]) for index in group]
                )
                iq = self._forward(model_input(self.kind, stacked))
                for index, frame in zip(group, iq):
                    images[index] = stacked_to_complex(frame)
        return [images[index] for index in range(len(datasets))]

    def describe(self) -> dict[str, Any]:
        """Identity and knobs: ``{name, backend, kind, scale, ...}``."""
        return {
            "name": self.name,
            "backend": "learned",
            "compute_backend": _backend_label(self.backend),
            "kind": self.kind,
            "scale": self.scale,
            "seed": self.seed,
            "n_parameters": self.model.n_parameters,
        }


class QuantizedBeamformer(LearnedBeamformer):
    """Tiny-VBF through the simulated FPGA datapath (Table III schemes).

    Shares :class:`LearnedBeamformer`'s input preparation — including
    the silent-frame normalization guard — and swaps the float forward
    pass for the bit-accurate quantized one
    (:class:`~repro.quant.qexec.QuantizedModel`), which runs on the
    float64 reference kernels whatever ``backend`` the RF front end is
    bound to.  ``pe=`` selects the datapath: ``None`` the modeled path
    (bit for bit the round-at-the-end integer PE), ``"emu-per-level"``
    the per-level-rounding PE emulator (see :mod:`repro.fpga.emu` and
    docs/fpga-emulation.md).
    """

    def __init__(
        self,
        scheme: str | QuantizationScheme = "float",
        model: Model | None = None,
        scale: str = "small",
        seed: int = 0,
        backend: "str | ArrayBackend | None" = None,
        pe: str | None = None,
    ) -> None:
        from repro.fpga.accelerator import TinyVbfAccelerator
        from repro.quant.qexec import QuantizedModel

        if isinstance(scheme, str):
            require_in("scheme", scheme, tuple(SCHEMES))
            scheme = SCHEMES[scheme]
        super().__init__(
            "tiny_vbf", model=model, scale=scale, seed=seed,
            backend=backend,
        )
        self.scheme = scheme
        self.name = f"tiny_vbf@{scheme.name}"
        self.accelerator = TinyVbfAccelerator(self.model, scheme)
        self.quantized = QuantizedModel(self.model, scheme, pe=pe)

    def _forward(self, x: Array) -> Array:
        y: Array = self.quantized(x)
        return y

    def beamform_batch(self, datasets: Sequence[Any]) -> list[Array]:
        """Geometry-grouped per-frame execution (no stacked forward).

        The modeled FPGA is a frame-serial device with no batch
        dimension, and a stacked software pass is slower than the loop:
        four stacked 20-bit frames took 120 against 87 ms per frame at
        one BLAS thread.  Their per-pixel activations (46 MiB, against
        11.5 MiB for one frame) exceed malloc's mmap threshold, so each
        temporary is a fresh mapping whose pages fault in on first
        touch: 22 ms of system time per frame, against none in the
        loop.  The grouped default still preserves ToF-plan locality
        per geometry.
        """
        return Beamformer.beamform_batch(self, datasets)

    def describe(self) -> dict[str, Any]:
        """The learned description plus scheme and PE execution mode."""
        description = super().describe()
        description.update(
            name=self.name, backend="fpga", scheme=self.scheme.name,
            pe=self.quantized.pe or "modeled",
        )
        return description
