"""Kernel profiling wrapper: transparency, registration, metrics.

The wrapper must be numerically invisible (same results, same
``rtol``/``atol``, same registry ``name``) while every dispatched
kernel lands in ``repro_kernel_seconds{kernel=...,backend=...}``.
Registration tests restore the plain backend in ``finally`` — the
backend registry is process-global state shared with every other test.
"""

import abc
import inspect
import pickle

import numpy as np
import pytest

from repro.api import create_beamformer
from repro.backend import (
    KERNELS,
    ArrayBackend,
    available_backends,
    get_backend,
    resolve_backend,
)
from repro.models.registry import build_model
from repro.obs import MetricsRegistry
from repro.obs.profile import (
    KERNEL_METRIC,
    ProfilingBackend,
    disable_kernel_profiling,
    enable_kernel_profiling,
)


def kernel_counts(metrics: MetricsRegistry, backend: str) -> dict:
    """``{kernel: call count}`` from the profiling histogram."""
    histogram = metrics.histogram(
        KERNEL_METRIC, labels=("kernel", "backend")
    )
    counts = {}
    for sample, key, value in histogram.samples():
        if sample == f"{KERNEL_METRIC}_count":
            kernel, backend_label = key[0], key[1]
            if backend_label == backend:
                counts[kernel] = value
    return counts


class RecordingBackend(ArrayBackend):
    """Records every kernel call; each kernel returns its name and args."""

    name = "recording"

    def __init__(self):
        self.calls = []


def _recording(kernel):
    def method(self, *args, **kwargs):
        self.calls.append((kernel, args, kwargs))
        return (kernel, args)

    return method


for _name, _ in inspect.getmembers(ArrayBackend, inspect.isfunction):
    if not _name.startswith("_"):
        setattr(RecordingBackend, _name, _recording(_name))
abc.update_abstractmethods(RecordingBackend)


class TestWrapper:
    def test_delegates_and_times_each_kernel(self):
        metrics = MetricsRegistry()
        wrapper = ProfilingBackend("numpy", metrics)
        inner = resolve_backend("numpy")
        x = np.arange(6.0).reshape(2, 3)
        w = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(
            wrapper.matmul(x, w), inner.matmul(x, w)
        )
        wrapper.asarray(x)
        counts = kernel_counts(metrics, "numpy")
        assert counts == {"matmul": 1.0, "asarray": 1.0}

    def test_every_kernel_is_timed_under_its_own_label(self):
        """Each public ``ArrayBackend`` kernel reaches the inner backend's
        own method once, unchanged, and is timed under its name.

        The kernel list comes from the contract class itself, so a new
        kernel is covered here the day it is added; reaching the inner
        method directly is what keeps fused kernels (``affine_relu``,
        ``attention``) fused under profiling.
        """
        public = [
            name
            for name, _ in inspect.getmembers(ArrayBackend, inspect.isfunction)
            if not name.startswith("_")
        ]
        assert sorted(KERNELS) == sorted(public)
        inner = RecordingBackend()
        metrics = MetricsRegistry()
        wrapper = ProfilingBackend(inner, metrics)
        for kernel in public:
            args = (object(), object())
            out = getattr(wrapper, kernel)(*args, axis=-1)
            assert out == (kernel, args)
            assert inner.calls[-1] == (kernel, args, {"axis": -1})
        assert [call[0] for call in inner.calls] == public
        assert kernel_counts(metrics, "recording") == dict.fromkeys(
            public, 1.0
        )

    @pytest.mark.parametrize("backend", available_backends())
    def test_profiled_tiny_vbf_is_bitwise_the_inner_backend(
        self, backend, sim_contrast_dataset
    ):
        """On every backend the wrapper changes no bit of a Tiny-VBF
        image, and attention is timed as the inner backend's one
        kernel, not re-dispatched as scores/softmax/context."""
        model = build_model("tiny_vbf", "small", seed=0)
        metrics = MetricsRegistry()
        wrapper = ProfilingBackend(backend, metrics)
        plain = create_beamformer("tiny_vbf", model=model, backend=backend)
        profiled = create_beamformer(
            "tiny_vbf", model=model, backend=wrapper
        )
        np.testing.assert_array_equal(
            profiled.beamform(sim_contrast_dataset),
            plain.beamform(sim_contrast_dataset),
        )
        counts = kernel_counts(metrics, wrapper.name)
        assert counts["attention"] >= 1
        assert counts["apply_plan"] == 1
        assert "attention_scores" not in counts
        assert "attention_context" not in counts

    def test_identity_mirrors_inner_backend(self):
        wrapper = ProfilingBackend("numpy", MetricsRegistry())
        inner = resolve_backend("numpy")
        assert wrapper.name == inner.name
        assert wrapper.rtol == inner.rtol
        assert wrapper.atol == inner.atol

    def test_wrappers_never_stack(self):
        metrics = MetricsRegistry()
        once = ProfilingBackend("numpy", metrics)
        twice = ProfilingBackend(once, metrics)
        assert twice.inner is once.inner


class TestRegistration:
    def test_enable_routes_ambient_dispatch_through_wrapper(
        self, sim_contrast_dataset
    ):
        """A DAS beamform after enabling must time its hot kernels.

        Wraps the process default, whichever backend that is, so the
        test covers every backend CI runs as the default.
        """
        metrics = MetricsRegistry()
        default_name = get_backend().name
        wrapper = enable_kernel_profiling(metrics)
        try:
            assert get_backend(default_name) is wrapper
            das = create_beamformer("das")
            reference = das.beamform(sim_contrast_dataset)
            counts = kernel_counts(metrics, default_name)
            assert counts.get("apply_plan", 0) >= 1
            assert counts.get("das_sum", 0) >= 1
        finally:
            disable_kernel_profiling(wrapper)
        assert get_backend(default_name) is wrapper.inner
        # Numerically transparent: identical to the unprofiled path.
        np.testing.assert_array_equal(
            reference, create_beamformer("das").beamform(
                sim_contrast_dataset
            ),
        )

    def test_wrapper_pickles_by_name_not_by_object(self):
        """RA004's contract: no pickle hooks, name-based resolution.

        A beamformer bound to a profiled backend must unpickle in a
        child process as whatever that name resolves to *there* — a
        plain backend, since wrappers are per-process opt-ins.
        """
        metrics = MetricsRegistry()
        wrapper = enable_kernel_profiling(metrics, backend="numpy")
        try:
            blob = pickle.dumps(wrapper)
            assert pickle.loads(blob) is wrapper  # registered here
        finally:
            disable_kernel_profiling(wrapper)
        revived = pickle.loads(blob)
        assert revived is wrapper.inner
        assert not isinstance(revived, ProfilingBackend)

    def test_enable_defaults_to_ambient_backend(self):
        metrics = MetricsRegistry()
        default_name = get_backend().name
        wrapper = enable_kernel_profiling(metrics)
        try:
            assert wrapper.name == default_name
            assert get_backend(default_name) is wrapper
        finally:
            disable_kernel_profiling(wrapper)
