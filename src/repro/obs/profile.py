"""Opt-in kernel profiling: a timing wrapper around any ArrayBackend.

:class:`ProfilingBackend` delegates every kernel of the
:class:`~repro.backend.ArrayBackend` contract to an inner backend,
timing each call into the ``repro_kernel_seconds{kernel=...,
backend=...}`` histogram of a :class:`~repro.obs.metrics.MetricsRegistry`.
That gives the per-kernel breakdown (gather-lerp, im2col, matmul,
attention, MVDR reductions) that the compiled-backend roadmap item
will be judged against — measured on live traffic, not a synthetic
microbench.

The wrapper keeps the inner backend's registry ``name`` (an instance
attribute), so the inherited pickle-by-name ``__reduce__`` still
resolves correctly across process boundaries; it defines **no** pickle
hooks of its own (analysis rule RA004 forbids them on ArrayBackend
subclasses).  A child process that unpickles a beamformer therefore
gets its own plain registered backend, unprofiled.

This module is the only place :mod:`repro.obs` touches
:mod:`repro.backend`; the rest of the package is dependency-free.
"""

from __future__ import annotations

import time
from typing import Any

from repro.backend import (
    Array,
    ArrayBackend,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.obs.metrics import MetricsRegistry

#: Histogram family every profiled kernel call lands in.
KERNEL_METRIC = "repro_kernel_seconds"


class ProfilingBackend(ArrayBackend):
    """Times every kernel call of a wrapped backend into a histogram.

    The wrapper is numerically transparent: each kernel returns the
    inner backend's result unchanged, and ``rtol``/``atol`` are copied
    from the inner backend so conformance comparisons are unaffected.
    """

    def __init__(
        self,
        inner: "str | ArrayBackend",
        metrics: MetricsRegistry,
        clock: object | None = None,
    ) -> None:
        """Wrap ``inner`` (name or instance), publishing into ``metrics``."""
        resolved = resolve_backend(inner)
        if isinstance(resolved, ProfilingBackend):
            resolved = resolved.inner  # never stack wrappers
        self.inner = resolved
        self.name = resolved.name
        self.rtol = resolved.rtol
        self.atol = resolved.atol
        self._clock_now = (
            clock.now if clock is not None else time.monotonic  # type: ignore[attr-defined]
        )
        self._histogram = metrics.histogram(
            KERNEL_METRIC,
            "Per-call latency of dispatched ArrayBackend kernels.",
            labels=("kernel", "backend"),
        )

    def _observe(self, kernel: str, started: float) -> None:
        self._histogram.observe(
            self._clock_now() - started, kernel=kernel, backend=self.name
        )

    # -- dtype policy ----------------------------------------------------

    def asarray(self, x: Array) -> Array:
        """Timed delegate of :meth:`ArrayBackend.asarray`."""
        started = self._clock_now()
        out = self.inner.asarray(x)
        self._observe("asarray", started)
        return out

    # -- elementwise / reduction nonlinearities -------------------------

    def relu(self, x: Array) -> Array:
        """Timed delegate of :meth:`ArrayBackend.relu`."""
        started = self._clock_now()
        out = self.inner.relu(x)
        self._observe("relu", started)
        return out

    def softmax(self, x: Array, axis: int = -1) -> Array:
        """Timed delegate of :meth:`ArrayBackend.softmax`."""
        started = self._clock_now()
        out = self.inner.softmax(x, axis=axis)
        self._observe("softmax", started)
        return out

    def tanh(self, x: Array) -> Array:
        """Timed delegate of :meth:`ArrayBackend.tanh`."""
        started = self._clock_now()
        out = self.inner.tanh(x)
        self._observe("tanh", started)
        return out

    # -- GEMM-shaped kernels --------------------------------------------

    def matmul(self, x: Array, weight: Array) -> Array:
        """Timed delegate of :meth:`ArrayBackend.matmul`."""
        started = self._clock_now()
        out = self.inner.matmul(x, weight)
        self._observe("matmul", started)
        return out

    def affine(self, x: Array, weight: Array, bias: Array | None) -> Array:
        """Timed delegate of :meth:`ArrayBackend.affine`."""
        started = self._clock_now()
        out = self.inner.affine(x, weight, bias)
        self._observe("affine", started)
        return out

    def affine_relu(
        self, x: Array, weight: Array, bias: Array | None
    ) -> Array:
        """Timed delegate of :meth:`ArrayBackend.affine_relu`.

        Forwards to the inner backend's own (possibly fused) kernel —
        inheriting the base default would re-dispatch through the
        wrapper's ``affine``/``relu`` and silently unfuse a compiled
        backend under profiling.
        """
        started = self._clock_now()
        out = self.inner.affine_relu(x, weight, bias)
        self._observe("affine_relu", started)
        return out

    def im2col(
        self,
        x: Array,
        kernel_size: tuple[int, int],
        in_channels: int,
    ) -> Array:
        """Timed delegate of :meth:`ArrayBackend.im2col`."""
        started = self._clock_now()
        out = self.inner.im2col(x, kernel_size, in_channels)
        self._observe("im2col", started)
        return out

    def attention_scores(self, q: Array, k: Array, scale: float) -> Array:
        """Timed delegate of :meth:`ArrayBackend.attention_scores`."""
        started = self._clock_now()
        out = self.inner.attention_scores(q, k, scale)
        self._observe("attention_scores", started)
        return out

    def attention_context(self, attention: Array, v: Array) -> Array:
        """Timed delegate of :meth:`ArrayBackend.attention_context`."""
        started = self._clock_now()
        out = self.inner.attention_context(attention, v)
        self._observe("attention_context", started)
        return out

    def attention(
        self, q: Array, k: Array, v: Array, scale: float
    ) -> tuple[Array, Array]:
        """Timed delegate of :meth:`ArrayBackend.attention` (forwards to
        the inner backend's possibly-fused implementation)."""
        started = self._clock_now()
        out = self.inner.attention(q, k, v, scale)
        self._observe("attention", started)
        return out

    # -- beamforming kernels --------------------------------------------

    def apply_plan(self, plan: Any, rf: Array) -> Array:
        """Timed delegate of :meth:`ArrayBackend.apply_plan`."""
        started = self._clock_now()
        out = self.inner.apply_plan(plan, rf)
        self._observe("apply_plan", started)
        return out

    def das_sum(self, tofc: Array, apodization: Array | None) -> Array:
        """Timed delegate of :meth:`ArrayBackend.das_sum`."""
        started = self._clock_now()
        out = self.inner.das_sum(tofc, apodization)
        self._observe("das_sum", started)
        return out

    def prepare_mvdr_windows(self, windows: Array) -> Array:
        """Timed delegate of :meth:`ArrayBackend.prepare_mvdr_windows`."""
        started = self._clock_now()
        out = self.inner.prepare_mvdr_windows(windows)
        self._observe("prepare_mvdr_windows", started)
        return out

    def mvdr_covariance(self, windows: Array) -> Array:
        """Timed delegate of :meth:`ArrayBackend.mvdr_covariance`."""
        started = self._clock_now()
        out = self.inner.mvdr_covariance(windows)
        self._observe("mvdr_covariance", started)
        return out

    def mvdr_output(self, weights: Array, windows: Array) -> Array:
        """Timed delegate of :meth:`ArrayBackend.mvdr_output`."""
        started = self._clock_now()
        out = self.inner.mvdr_output(weights, windows)
        self._observe("mvdr_output", started)
        return out


def enable_kernel_profiling(
    metrics: MetricsRegistry,
    backend: "str | ArrayBackend | None" = None,
    clock: object | None = None,
) -> ProfilingBackend:
    """Wrap a backend and re-register the wrapper under its own name.

    After this call, every resolution of that backend name — including
    beamformers created with ``backend="numpy-fast"`` and ambient
    :func:`~repro.backend.get_backend` lookups — dispatches through the
    timing wrapper.  Returns the wrapper; calling
    :func:`disable_kernel_profiling` (or ``register_backend(wrapper.
    inner, overwrite=True)``) restores the plain backend.
    """
    wrapper = ProfilingBackend(
        backend if backend is not None else get_backend(), metrics, clock
    )
    register_backend(wrapper, overwrite=True)
    return wrapper


def disable_kernel_profiling(wrapper: ProfilingBackend) -> None:
    """Undo :func:`enable_kernel_profiling` for ``wrapper``."""
    register_backend(wrapper.inner, overwrite=True)
