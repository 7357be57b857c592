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

import abc
import time
from typing import Any, Callable

from repro.backend import (
    KERNELS,
    ArrayBackend,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.obs.metrics import MetricsRegistry

#: Histogram family every profiled kernel call lands in.
KERNEL_METRIC = "repro_kernel_seconds"


def _timed(kernel: str) -> Callable[..., Any]:
    """A method that runs the inner backend's ``kernel`` and times it.

    It calls the inner backend's own method, so a compiled backend's
    fused kernels (``affine_relu``, ``attention``) stay fused under
    profiling instead of re-dispatching through the base defaults.
    """

    def delegate(self: ProfilingBackend, *args: Any, **kwargs: Any) -> Any:
        started = self._clock_now()
        out = getattr(self.inner, kernel)(*args, **kwargs)
        self._observe(kernel, started)
        return out

    delegate.__name__ = kernel
    delegate.__qualname__ = f"ProfilingBackend.{kernel}"
    delegate.__doc__ = f"Timed delegate of :meth:`ArrayBackend.{kernel}`."
    return delegate


def _timed_kernels(cls: type[ArrayBackend]) -> type[ArrayBackend]:
    """Give ``cls`` a timed delegate for every kernel in ``KERNELS``."""
    for kernel in KERNELS:
        setattr(cls, kernel, _timed(kernel))
    return abc.update_abstractmethods(cls)


@_timed_kernels
class ProfilingBackend(ArrayBackend):
    """Times every kernel call of a wrapped backend into a histogram.

    The wrapper is numerically transparent: each kernel returns the
    inner backend's result unchanged, and ``rtol``/``atol`` are copied
    from the inner backend so conformance comparisons are unaffected.
    Its kernels are generated from :data:`repro.backend.KERNELS`.
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
