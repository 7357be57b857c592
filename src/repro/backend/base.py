"""The :class:`ArrayBackend` contract and the backend registry.

Every hot kernel in the repo — the DAS gather/interpolation, the
Dense/Conv2D GEMMs, attention, the quantized-execution matmuls and the
MVDR covariance reductions — dispatches through the *current* backend
instead of calling NumPy directly.  A backend is a bundle of those
kernels with one numerical personality:

* ``numpy`` — the reference: bit-for-bit the operations the repo
  performed before the dispatch layer existed (asserted by the golden
  fixtures under ``tests/golden``),
* ``numpy-fast`` — float32 accumulation, preallocated scratch buffers,
  a fused gather+interpolation for ToF-plan application and cached
  im2col indices for Conv2D (certified against the reference by the
  conformance suite under ``tests/backend``).

Selection precedence (first match wins):

1. an explicit ``get_backend("name")`` argument,
2. the innermost active :func:`use_backend` context *in this thread*,
3. the process default (:func:`set_backend`, else the ``REPRO_BACKEND``
   environment variable, else ``"numpy"``).

The :func:`use_backend` context is thread-local on purpose: the serve
worker pool runs beamformers concurrently, and a per-beamformer backend
(``create_beamformer(..., backend=...)``) must not leak into sibling
workers.

Adding a backend is one registry entry::

    from repro.backend import ArrayBackend, register_backend

    class NumbaBackend(ArrayBackend):
        name = "numba"
        ...

    register_backend(NumbaBackend())

and the conformance suite (parametrized over
:func:`available_backends`) certifies it automatically.
"""

from __future__ import annotations

import abc
import os
import threading
from typing import Any, Callable, overload

import numpy as np
from numpy.typing import NDArray

#: The array type every kernel consumes and produces.  Dtypes are a
#: backend's *policy* (float64 reference vs float32 fast), so the alias
#: is deliberately dtype-agnostic.
Array = NDArray[Any]


class ArrayBackend(abc.ABC):
    """One implementation of every hot kernel.

    Attributes:
        name: registry identity (``"numpy"``, ``"numpy-fast"``, ...).
        rtol, atol: documented conformance tolerances of this backend's
            outputs relative to the ``numpy`` reference, on inputs
            normalized to unit scale.  The reference itself carries
            zeros (bit-for-bit).  The conformance suite compares with
            exactly these values, so they are part of the contract.
    """

    name: str = "abstract"
    rtol: float = 0.0
    atol: float = 0.0

    # -- dtype policy ----------------------------------------------------

    @abc.abstractmethod
    def asarray(self, x: Array) -> Array:
        """Cast ``x`` to this backend's real compute dtype."""

    # -- elementwise / reduction nonlinearities -------------------------
    #
    # These are concrete (not abstract) so pre-existing backends remain
    # valid: the defaults reproduce, operation for operation, what the
    # layers in ``repro.nn.layers`` historically did inline, so routing
    # through them is observationally a refactor for ``numpy`` and
    # ``numpy-fast``.  Compiled backends override them with fused
    # single-pass kernels — on the measured forward path the ``where``
    # mask and the softmax exp/sum temporaries cost more than the GEMMs.

    def relu(self, x: Array) -> Array:
        """``max(x, 0)`` in this backend's compute dtype."""
        x = self.asarray(x)
        return np.where(x > 0, x, 0.0)

    def softmax(self, x: Array, axis: int = -1) -> Array:
        """Numerically stable softmax along ``axis``."""
        x = self.asarray(x)
        shifted = x - x.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out: Array = exp / exp.sum(axis=axis, keepdims=True)
        return out

    def tanh(self, x: Array) -> Array:
        """Hyperbolic tangent in this backend's compute dtype."""
        out: Array = np.tanh(self.asarray(x))
        return out

    # -- GEMM-shaped kernels --------------------------------------------

    @abc.abstractmethod
    def matmul(self, x: Array, weight: Array) -> Array:
        """``x @ weight`` with all leading axes flattened into one GEMM."""

    @abc.abstractmethod
    def affine(
        self,
        x: Array,
        weight: Array,
        bias: Array | None,
    ) -> Array:
        """``x @ weight (+ bias)`` — the Dense/Conv2D forward kernel."""

    def affine_relu(
        self,
        x: Array,
        weight: Array,
        bias: Array | None,
    ) -> Array:
        """``relu(x @ weight (+ bias))`` — the Dense->ReLU peephole.

        The default is literally :meth:`relu` over :meth:`affine` (the
        exact operation sequence the unfused layers perform), so plain
        backends are observationally unchanged; compiled backends
        override it to apply the ReLU inside the GEMM epilogue's
        existing pass over the output instead of a separate
        read-modify-write over the full activation.
        """
        return self.relu(self.affine(x, weight, bias))

    @abc.abstractmethod
    def im2col(
        self,
        x: Array,
        kernel_size: tuple[int, int],
        in_channels: int,
    ) -> Array:
        """``(B, H, W, C) -> (B, H, W, kh*kw*C)`` same-padded patches,
        ordered ``(kh, kw, C)`` along the last axis."""

    @abc.abstractmethod
    def attention_scores(
        self, q: Array, k: Array, scale: float
    ) -> Array:
        """``(B, H, T, k) x (B, H, S, k) -> (B, H, T, S)`` scaled scores."""

    @abc.abstractmethod
    def attention_context(
        self, attention: Array, v: Array
    ) -> Array:
        """``(B, H, T, S) x (B, H, S, k) -> (B, H, T, k)`` weighted sum."""

    def attention(
        self, q: Array, k: Array, v: Array, scale: float
    ) -> tuple[Array, Array]:
        """Full attention forward: ``(probabilities, context)``.

        The default composes :meth:`attention_scores`, :meth:`softmax`
        and :meth:`attention_context` — exactly the sequence the MHA
        layer historically dispatched — so plain backends are
        unchanged.  Compiled backends override it to run the three
        stages slice-by-slice while each ``(T, S)`` slab is cache-hot.
        The probabilities are part of the return value because the
        layer's backward pass consumes them.
        """
        scores = self.attention_scores(q, k, scale)
        probabilities = self.softmax(scores, axis=-1)
        return probabilities, self.attention_context(probabilities, v)

    # -- beamforming kernels --------------------------------------------

    @abc.abstractmethod
    def apply_plan(self, plan: Any, rf: Array) -> Array:
        """Gather + linearly interpolate ``rf`` through a
        :class:`~repro.beamform.tof.TofPlan`'s tables -> ToFC cube.

        ``plan`` is duck-typed (``idx0``/``frac``/``valid``/``grid``/
        ``probe`` attributes) so backends stay import-free of the
        beamforming package.
        """

    @abc.abstractmethod
    def das_sum(
        self, tofc: Array, apodization: Array | None
    ) -> Array:
        """Aperture reduction: mean (``apodization=None``) or weighted
        sum over the last axis of ``(nz, nx, E)``."""

    def prepare_mvdr_windows(self, windows: Array) -> Array:
        """One-time per-column conversion of the subaperture window view.

        ``mvdr_covariance`` and ``mvdr_output`` both consume the same
        ``(nz, W, L)`` strided view; backends that must materialize it
        (e.g. a contiguous compute-dtype copy) override this so the
        copy happens once, not once per kernel.  Default: identity.
        """
        return windows

    @abc.abstractmethod
    def mvdr_covariance(self, windows: Array) -> Array:
        """``(nz, W, L)`` subaperture windows -> ``(nz, L, L)`` averaged
        spatial covariance."""

    @abc.abstractmethod
    def mvdr_output(
        self, weights: Array, windows: Array
    ) -> Array:
        """Distortionless output ``(nz,)``: conjugate-weighted window
        sum averaged over subapertures."""

    def __reduce__(
        self,
    ) -> tuple[Callable[[str], "ArrayBackend | None"], tuple[str]]:
        """Pickle by registry name, not by state.

        Backends carry process-local machinery (thread-local scratch
        pools, locks, cached index tables) that cannot — and should not
        — cross a process boundary.  Reducing to a registry lookup means
        any object holding a backend reference (a
        :class:`~repro.api.base.Beamformer`, a serve task) pickles
        cleanly, and the receiving process resolves its *own* registered
        instance.  A custom backend must therefore be registered in the
        child too (import its module before unpickling); a spawned
        child re-imports :mod:`repro.backend`, which covers the
        built-ins.
        """
        return (resolve_backend, (self.name,))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


#: Every kernel of the :class:`ArrayBackend` contract, in declaration
#: order: its public methods.  Wrappers that must intercept every kernel
#: (:class:`repro.obs.profile.ProfilingBackend`) iterate this, so a new
#: kernel cannot be missed.
KERNELS: tuple[str, ...] = tuple(
    name
    for name, member in vars(ArrayBackend).items()
    if callable(member) and not name.startswith("_")
)


# --------------------------------------------------------------------------
# Registry + selection
# --------------------------------------------------------------------------

_REGISTRY: dict[str, ArrayBackend] = {}
#: Backends that exist in the codebase but could not be registered in
#: this process (e.g. ``cnative`` without a C compiler), mapped to a
#: human-readable reason.  :func:`resolve_backend` uses this to turn
#: "unknown backend" into an actionable error for names the user could
#: reasonably expect to work.
_UNAVAILABLE: dict[str, str] = {}
_DEFAULT_NAME = os.environ.get("REPRO_BACKEND", "numpy")
_tls = threading.local()


def register_backend(
    backend: ArrayBackend, overwrite: bool = False
) -> None:
    """Register ``backend`` under ``backend.name``.

    Once registered, the backend is selectable everywhere (``backend=``
    kwargs, :func:`use_backend`, ``REPRO_BACKEND``) and is picked up by
    the conformance suite's backend fixture.
    """
    name = backend.name
    if not name or not isinstance(name, str):
        raise ValueError(f"backend has an invalid name: {name!r}")
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"backend {name!r} already registered")
    _REGISTRY[name] = backend
    _UNAVAILABLE.pop(name, None)


def unregister_backend(name: str) -> None:
    """Remove a registered backend (primarily for tests)."""
    if name in ("numpy", "numpy-fast"):
        raise ValueError(f"the built-in backend {name!r} cannot be removed")
    _REGISTRY.pop(name, None)


def available_backends() -> tuple[str, ...]:
    """Names of every registered backend, sorted."""
    return tuple(sorted(_REGISTRY))


def mark_backend_unavailable(name: str, reason: str) -> None:
    """Record that a known backend could not be registered here.

    The backend stays absent from :func:`available_backends` (nothing
    may select it implicitly), but an *explicit* request for it raises
    a :class:`ValueError` carrying ``reason`` instead of a bare
    "unknown backend" — the difference between a typo and a missing
    C compiler.
    """
    if name not in _REGISTRY:
        _UNAVAILABLE[name] = reason


def backend_unavailable_reason(name: str) -> str | None:
    """Why ``name`` failed to register, or ``None`` if it never tried."""
    return _UNAVAILABLE.get(name)


def _context_stack() -> list[ArrayBackend]:
    stack: list[ArrayBackend] | None = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


@overload
def resolve_backend(backend: None) -> None: ...


@overload
def resolve_backend(backend: "str | ArrayBackend") -> ArrayBackend: ...


def resolve_backend(
    backend: "str | ArrayBackend | None",
) -> ArrayBackend | None:
    """Normalize a user-facing backend argument.

    ``None`` stays ``None`` (meaning *inherit the ambient backend*);
    strings are looked up in the registry; instances pass through.
    """
    if backend is None or isinstance(backend, ArrayBackend):
        return backend
    if isinstance(backend, str):
        try:
            return _REGISTRY[backend]
        except KeyError:
            known = ", ".join(available_backends())
            if backend in _UNAVAILABLE:
                raise ValueError(
                    f"backend {backend!r} is not available in this "
                    f"process: {_UNAVAILABLE[backend]} "
                    f"(registered: {known})"
                ) from None
            raise ValueError(
                f"unknown backend {backend!r}; registered: {known}"
            ) from None
    raise TypeError(
        f"backend must be a name, an ArrayBackend or None, got "
        f"{type(backend).__name__}"
    )


def get_backend(name: "str | ArrayBackend | None" = None) -> ArrayBackend:
    """The backend selected by the precedence rules (module docstring)."""
    if name is not None:
        return resolve_backend(name)
    stack = _context_stack()
    if stack:
        return stack[-1]
    backend = _REGISTRY.get(_DEFAULT_NAME)
    if backend is None:
        known = ", ".join(available_backends())
        raise ValueError(
            f"default backend {_DEFAULT_NAME!r} is not registered "
            f"(registered: {known}); check REPRO_BACKEND/set_backend"
        )
    return backend


def set_backend(name: "str | ArrayBackend") -> None:
    """Set the *process-wide* default backend.

    Affects every thread that has no :func:`use_backend` context active.
    """
    global _DEFAULT_NAME
    _DEFAULT_NAME = resolve_backend(name).name


class use_backend:
    """Context manager selecting a backend for the current thread.

    ``use_backend(None)`` is a no-op scope (inherits the ambient
    backend) so callers can wrap unconditionally::

        with use_backend(self.backend):   # None -> inherit
            ...hot path...

    Scopes nest; each thread has its own stack.
    """

    def __init__(self, backend: "str | ArrayBackend | None") -> None:
        self._backend = resolve_backend(backend)

    def __enter__(self) -> ArrayBackend:
        if self._backend is not None:
            _context_stack().append(self._backend)
        return self._backend or get_backend()

    def __exit__(self, *exc_info: object) -> None:
        if self._backend is not None:
            _context_stack().pop()


def backend_names_and_tolerances() -> dict[str, tuple[float, float]]:
    """``{name: (rtol, atol)}`` for every registered backend (docs/tests)."""
    return {
        name: (backend.rtol, backend.atol)
        for name, backend in sorted(_REGISTRY.items())
    }
