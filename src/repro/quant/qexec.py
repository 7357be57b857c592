"""Quantized forward execution.

Runs a trained model under a :class:`QuantizationScheme`, applying fixed
point exactly where the FPGA datapath does:

* parameters are quantized on every forward (``weights`` format; biases
  live in the accumulator, so they use the ``arithmetic`` format),
* every multiply/accumulate result is quantized to the ``arithmetic``
  format,
* every layer output written back to memory is quantized to the
  ``intermediate`` format,
* softmax probabilities are quantized to the ``softmax`` format,
* non-linear units that the accelerator implements with dedicated
  hardware (ReLU, softmax, the division/sqrt inside layer norm) are
  evaluated exactly and re-quantized on output (paper Section III-D).

This is "fake quantization": values stay float64 but are snapped to the
representable grid.  Every kernel runs on the float64 ``numpy``
reference backend, whatever backend the caller has selected: a 20-bit
by 20-bit product needs 40 bits and float32 keeps 24, whereas float64
partial sums stay exact for the Table-III word lengths.  Rounding each
GEMM result once is then bit for bit the PE's round-at-the-end integer
datapath (:class:`repro.fpga.emu.EmulatedPE`).

The three GEMM sites (dense, attention scores, attention context)
requantize their fresh output in place, in integer step units
(:func:`_requantize`), so the accumulator round, the bias add and the
write-back allocate nothing the size of the output.  Every other
quantization, parameters included, goes through
:meth:`FixedPointFormat.quantize`.

:func:`pe_rounding` runs the three GEMM sites on that emulator instead:
``"round_at_end"`` is the oracle for the modeled path, ``"per_level"``
the per-product-rounding datapath behind ``pe="emu-per-level"``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.backend import get_backend, use_backend
from repro.models.tiny_vbf import TinyVbfNetwork
from repro.nn.layers.activations import ReLU, Softmax, Tanh, softmax
from repro.nn.layers.attention import MultiHeadAttention
from repro.nn.layers.base import Layer
from repro.nn.layers.container import Residual, Sequential
from repro.nn.layers.dense import Dense
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.embedding import LearnedPositionalEmbedding
from repro.nn.layers.layernorm import LayerNorm
from repro.nn.layers.patches import Patchify, Unpatchify
from repro.quant.fixed_point import FixedPointFormat, round_steps
from repro.quant.schemes import QuantizationScheme

if TYPE_CHECKING:  # lazy at runtime: repro.fpga imports repro.quant
    from repro.fpga.emu import EmulatedPE

_rounding = threading.local()


@contextmanager
def pe_rounding(mode: str) -> Iterator[None]:
    """Run this thread's quantized GEMMs on the integer PE emulator.

    ``mode`` is a :data:`repro.fpga.emu.ROUNDING_MODES` member.  The
    setting is thread-local, so a serve worker arms it around its own
    forward and concurrent beamformers never see each other's mode.
    """
    from repro.fpga.emu import ROUNDING_MODES

    if mode not in ROUNDING_MODES:
        raise ValueError(
            f"rounding mode must be one of {ROUNDING_MODES}, got {mode!r}"
        )
    previous = getattr(_rounding, "mode", None)
    _rounding.mode = mode
    try:
        yield
    finally:
        _rounding.mode = previous


def _emulated_pe(
    scheme: QuantizationScheme,
    a_format: FixedPointFormat | None,
    b_format: FixedPointFormat | None,
) -> "EmulatedPE | None":
    """The PE for one GEMM site, or ``None`` for the reference kernel.

    The operand roles are the datapath's: activations x weights for the
    dense layers, q x k for attention scores and probabilities x v for
    the attention context.
    """
    mode = getattr(_rounding, "mode", None)
    if mode is None or scheme.arithmetic is None:
        return None
    from repro.fpga.emu import EmulatedPE

    return EmulatedPE(
        scheme.arithmetic, a_format=a_format, b_format=b_format,
        rounding_mode=mode,
    )


def _q(fmt, values: np.ndarray) -> np.ndarray:
    """Quantize with an optional format (None = float passthrough)."""
    if fmt is None:
        return values
    return fmt.quantize(values)


def quantized_forward(
    layer: Layer, x: np.ndarray, scheme: QuantizationScheme
) -> np.ndarray:
    """Evaluate ``layer`` on ``x`` under ``scheme`` (see module doc)."""
    if scheme.is_float:
        return layer.forward(x, training=False)

    reference = get_backend("numpy")
    if get_backend() is not reference:
        # Float32 kernels would round the products of the wider
        # schemes; the reference keeps them exact (module docstring).
        with use_backend(reference):
            return quantized_forward(layer, x, scheme)

    if isinstance(layer, Sequential):
        for child in layer.layers:
            x = quantized_forward(child, x, scheme)
        return x

    if isinstance(layer, Residual):
        inner = quantized_forward(layer.inner, x, scheme)
        return _q(scheme.intermediate, x + inner)

    if isinstance(layer, TinyVbfNetwork):
        x = _q(scheme.intermediate, x)
        pixel = quantized_forward(layer.pixel_encoder, x, scheme)
        context = quantized_forward(layer.context, pixel, scheme)
        if layer.config.use_pixel_skip:
            combined = np.concatenate([pixel, context], axis=-1)
        else:
            combined = context
        return quantized_forward(layer.head, combined, scheme)

    if isinstance(layer, Dense):
        return _quantized_dense(layer, x, scheme)

    if isinstance(layer, MultiHeadAttention):
        return _quantized_attention(layer, x, scheme)

    if isinstance(layer, LayerNorm):
        gamma = _q(scheme.weights, layer.gamma.value)
        beta = _q(scheme.arithmetic, layer.beta.value)
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normalized = (x - mean) / np.sqrt(var + layer.eps)
        return _q(scheme.intermediate, gamma * normalized + beta)

    if isinstance(layer, ReLU):
        return np.maximum(x, 0.0)

    if isinstance(layer, Tanh):
        return _q(scheme.intermediate, np.tanh(x))

    if isinstance(layer, Softmax):
        return _q(scheme.softmax, softmax(x, axis=layer.axis))

    if isinstance(layer, LearnedPositionalEmbedding):
        embedding = _q(scheme.weights, layer.embedding.value)
        return _q(scheme.intermediate, x + embedding)

    if isinstance(layer, (Patchify, Unpatchify, Dropout)):
        # Pure data movement (dropout is identity at inference).
        return layer.forward(x, training=False)

    raise TypeError(
        f"no quantized execution rule for {type(layer).__name__}"
    )


def _requantize(
    y: np.ndarray,
    fmt: FixedPointFormat | None,
    bias: np.ndarray | None = None,
) -> np.ndarray:
    """Quantize the fresh GEMM output ``y`` to ``fmt`` in place.

    In step units: scale by ``2**f``, round half-to-even and saturate,
    add the ``fmt``-quantized ``bias`` as steps and saturate again,
    scale back.  Integer steps of Table-III words add exactly in
    float64, so this is bit for bit ``_q(fmt, _q(fmt, y) + bias)``.
    Only ever called on an array the GEMM just returned.
    """
    if fmt is None:
        return y if bias is None else y + bias
    y *= fmt.scale
    round_steps(y, fmt)
    if bias is not None:
        y += bias * fmt.scale
        np.clip(y, *fmt.step_range, out=y)
    y *= fmt.resolution
    return y


def _quantized_dense(
    layer: Dense, x: np.ndarray, scheme: QuantizationScheme
) -> np.ndarray:
    """``x @ W + b`` on the PE: activations x weights."""
    weight = _q(scheme.weights, layer.weight.value)
    bias = None
    if layer.bias is not None:
        bias = _q(scheme.arithmetic, layer.bias.value)
    pe = _emulated_pe(scheme, scheme.intermediate, scheme.weights)
    gemm = get_backend().matmul if pe is None else pe.matmul
    y = _requantize(gemm(x, weight), scheme.arithmetic, bias)
    if scheme.intermediate != scheme.arithmetic:
        # Equal formats skip this: a value on its own grid stays put.
        y = _requantize(y, scheme.intermediate)
    return y


def _quantized_attention(
    layer: MultiHeadAttention, x: np.ndarray, scheme: QuantizationScheme
) -> np.ndarray:
    """MHA under quantization: Figs. 6-8 of the paper's accelerator."""
    backend = get_backend()
    q = layer._split_heads(_quantized_dense(layer.query, x, scheme))
    k = layer._split_heads(_quantized_dense(layer.key, x, scheme))
    v = layer._split_heads(_quantized_dense(layer.value, x, scheme))

    scale = 1.0 / np.sqrt(layer.head_dim)
    pe = _emulated_pe(scheme, scheme.intermediate, scheme.intermediate)
    scores = _requantize(
        backend.attention_scores(q, k, scale) if pe is None
        else pe.matmul(q, np.swapaxes(k, -1, -2), scale=scale),
        scheme.arithmetic,
    )
    attention = _q(scheme.softmax, softmax(scores, axis=-1))

    pe = _emulated_pe(scheme, scheme.softmax, scheme.intermediate)
    context = _requantize(
        backend.attention_context(attention, v) if pe is None
        else pe.matmul(attention, v),
        scheme.arithmetic,
    )
    return _quantized_dense(layer.output, layer._merge_heads(context),
                            scheme)


#: ``pe=`` knob values -> :mod:`repro.fpga.emu` rounding modes.  ``None``
#: keeps the modeled path; ``"emu-per-level"`` runs the GEMMs on the
#: per-level-rounding integer PE.
PE_MODES: dict[str | None, str | None] = {
    None: None,
    "emu-per-level": "per_level",
}


def resolve_pe_mode(pe: str | None) -> str | None:
    """Validate a ``pe=`` knob value, returning its rounding mode."""
    if pe not in PE_MODES:
        known = ", ".join(repr(key) for key in PE_MODES)
        raise ValueError(f"pe must be one of {known}, got {pe!r}")
    return PE_MODES[pe]


class QuantizedModel:
    """A trained model bound to a quantization scheme.

    The one quantized forward entry point.  ``pe`` selects the
    datapath: ``None`` (default) the modeled path, which is the
    round-at-the-end integer PE bit for bit; ``"emu-per-level"`` the
    per-level-rounding PE (:mod:`repro.fpga.emu`), armed with
    :func:`pe_rounding` around each forward.
    """

    def __init__(
        self, model, scheme: QuantizationScheme, pe: str | None = None
    ) -> None:
        self.model = model
        self.scheme = scheme
        self._pe_mode = resolve_pe_mode(pe)
        self.pe = pe

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float)
        if self._pe_mode is None:
            return quantized_forward(self.model.root, x, self.scheme)
        with pe_rounding(self._pe_mode):
            return quantized_forward(self.model.root, x, self.scheme)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)
