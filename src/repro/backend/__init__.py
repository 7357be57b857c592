"""repro.backend — pluggable compute backends for the hot paths.

The paper's whole premise is one model running on different substrates
(float reference vs. FPGA fixed point); this package is the software
seam for the same idea: every hot kernel (DAS gather/interpolation,
Dense/Conv2D GEMMs, attention, quantized-execution matmuls, MVDR
reductions) dispatches through an :class:`ArrayBackend`, selected per
call site, per thread, or process-wide::

    from repro.backend import use_backend

    with use_backend("numpy-fast"):
        image = beamformer.beamform(frame)        # float32 kernels

    create_beamformer("das", backend="numpy-fast")  # bound per instance
    REPRO_BACKEND=numpy-fast python -m repro.serve  # process default

Built-ins: ``numpy`` (reference, bit-for-bit the pre-dispatch numerics),
``numpy-fast`` (float32 accumulation, fused/cached gathers, scratch
reuse) and — on hosts with a C compiler — ``cnative``
(runtime-compiled C kernels, threaded and fused; see
``repro.backend.cnative``).  The quantized forward always runs on
``numpy``: its float64 partial sums are what make it exact to the
fixed-point datapath (see ``repro.quant.qexec``).  New
backends register with :func:`register_backend` and are certified by
the conformance suite in ``tests/backend`` automatically — see
DESIGN.md §4 for the dispatch rules and the how-to.
"""

from repro.backend.base import (
    KERNELS,
    Array,
    ArrayBackend,
    available_backends,
    backend_names_and_tolerances,
    backend_unavailable_reason,
    get_backend,
    mark_backend_unavailable,
    register_backend,
    resolve_backend,
    set_backend,
    unregister_backend,
    use_backend,
)
from repro.backend.cnative import register_cnative_backend
from repro.backend.fast import NumpyFastBackend
from repro.backend.reference import NumpyBackend, flat_matmul

register_backend(NumpyBackend())
register_backend(NumpyFastBackend())
register_cnative_backend()

__all__ = [
    "KERNELS",
    "Array",
    "ArrayBackend",
    "NumpyBackend",
    "NumpyFastBackend",
    "available_backends",
    "backend_unavailable_reason",
    "mark_backend_unavailable",
    "register_cnative_backend",
    "backend_names_and_tolerances",
    "flat_matmul",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "set_backend",
    "unregister_backend",
    "use_backend",
]
