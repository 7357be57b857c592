"""The `Beamformer` abstraction: one interface over every datapath.

Every beamforming path in the repo — classical DAS/MVDR, the three
learned models, and the quantized FPGA datapath — consumes the same
analytic ToFC cube and produces the same ``(nz, nx)`` complex IQ image.
:class:`Beamformer` makes that contract explicit so callers (experiment
runners, benches, serving loops) never dispatch on strings or carry
model-kind metadata out-of-band.

Input preparation is shared here so all adapters get identical numerics:
the ToFC cube always comes from the LRU-cached :class:`TofPlan`
(:func:`repro.beamform.tof.get_tof_plan`), which means any sequence of
frames on one acquisition geometry — a ``beamform_batch`` call, a bench
sweep, repeated serving traffic — computes the per-pixel delay tables
exactly once.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence

import numpy as np

from repro.backend import Array, ArrayBackend, use_backend
from repro.beamform.tof import TofPlan, get_tof_plan, plan_cache_key


def dataset_plan_key(dataset: Any) -> tuple[Any, ...]:
    """Cheap acquisition-geometry identity of a dataset (no plan build).

    Shares :func:`repro.beamform.tof.plan_cache_key`'s definition, so two
    datasets with equal keys are guaranteed to resolve to the same cached
    :class:`TofPlan`.  Batch execution and the serving engine both
    group frames by this key.
    """
    key: tuple[Any, ...] = plan_cache_key(
        dataset.probe,
        dataset.grid,
        dataset.angle_rad,
        dataset.sound_speed_m_s,
        getattr(dataset, "t_start_s", 0.0),
        int(np.asarray(dataset.rf).shape[0]),
    )
    return key


def group_indices_by_geometry(datasets: Sequence[Any]) -> list[list[int]]:
    """Partition dataset indices into same-geometry runs, in first-seen
    order; order within each group follows the input order."""
    groups: dict[tuple[Any, ...], list[int]] = {}
    for index, dataset in enumerate(datasets):
        groups.setdefault(dataset_plan_key(dataset), []).append(index)
    return list(groups.values())


def dataset_tof_plan(dataset: Any) -> TofPlan:
    """The (cached) delay plan for a dataset's acquisition geometry."""
    return get_tof_plan(
        dataset.probe,
        dataset.grid,
        int(np.asarray(dataset.rf).shape[0]),
        angle_rad=dataset.angle_rad,
        sound_speed_m_s=dataset.sound_speed_m_s,
        t_start_s=getattr(dataset, "t_start_s", 0.0),
    )


def dataset_tofc(dataset: Any) -> Array:
    """Analytic ToFC cube of a dataset through the cached plan."""
    tofc: Array = dataset_tof_plan(dataset).apply_analytic(dataset.rf)
    return tofc


def normalized_tofc(dataset: Any) -> Array:
    """ToFC cube normalized to [-1, 1] — the learned models' convention.

    Raises:
        ValueError: when the dataset contains no signal at all (a silent
            ToFC cube cannot be normalized; this guard applies to the
            float *and* quantized datapaths).
    """
    tofc = dataset_tofc(dataset)
    peak = np.abs(tofc).max()
    if peak == 0.0:
        name = getattr(dataset, "name", "<unnamed>")
        raise ValueError(f"dataset {name} has silent ToFC data")
    normalized: Array = tofc / peak
    return normalized


class Beamformer(abc.ABC):
    """Abstract single-angle plane-wave beamformer.

    Concrete adapters live in :mod:`repro.api.adapters`; build them
    directly or through :func:`repro.api.create_beamformer`.
    """

    #: Short machine-readable identity, e.g. ``"das"`` or ``"tiny_vbf"``.
    name: str = "beamformer"

    #: Compute backend bound to this instance (a registered name, an
    #: :class:`~repro.backend.ArrayBackend`, or ``None`` to inherit the
    #: ambient backend — see :mod:`repro.backend` for the precedence).
    backend: "str | ArrayBackend | None" = None

    def backend_scope(self) -> use_backend:
        """Context manager activating this instance's bound backend.

        A ``None`` binding yields a no-op scope, so adapters wrap their
        hot paths unconditionally::

            with self.backend_scope():
                ...kernels dispatch through the bound backend...
        """
        return use_backend(self.backend)

    @abc.abstractmethod
    def beamform(self, dataset: Any) -> Array:
        """Beamform one dataset -> ``(nz, nx)`` complex IQ image.

        ``dataset`` is any object exposing ``rf``, ``probe``, ``grid``,
        ``angle_rad`` and ``sound_speed_m_s`` (e.g.
        :class:`repro.ultrasound.datasets.PlaneWaveDataset`).
        """

    def beamform_batch(self, datasets: Sequence[Any]) -> list[Array]:
        """Beamform many datasets -> list of complex IQ images.

        The default implementation loops over :meth:`beamform`, but
        *grouped by acquisition geometry* (:func:`dataset_plan_key`)
        rather than in input order: a batch that interleaves more
        geometries than the plan cache holds would otherwise rebuild its
        delay tables on every frame.  Results always come back in input
        order.  Adapters that can exploit true batch execution (stacking
        frames through one model forward) override this.
        """
        datasets = list(datasets)
        images: dict[int, Array] = {}
        for group in group_indices_by_geometry(datasets):
            for index in group:
                images[index] = self.beamform(datasets[index])
        return [images[index] for index in range(len(datasets))]

    @abc.abstractmethod
    def describe(self) -> dict[str, Any]:
        """Self-description: ``name``, ``backend`` and the knobs that
        select this beamformer (scheme, scale, f-number, ...)."""

    def __repr__(self) -> str:
        params = ", ".join(
            f"{key}={value!r}"
            for key, value in self.describe().items()
            if key != "name"
        )
        return f"{type(self).__name__}({params})"
