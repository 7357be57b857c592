"""Fixed-point quantization of Tiny-VBF (paper Section IV-A, Table III).

The paper quantizes the trained Tiny-VBF with uniform bit-widths (24, 20,
16) and two *hybrid* schemes that allocate different widths to weights
(8 bits), the softmax unit (24 bits), multiply/add arithmetic and
intermediate results (20 or 16 bits).  This package implements:

* :mod:`repro.quant.fixed_point` — saturating round-to-nearest fixed
  point formats,
* :mod:`repro.quant.schemes` — the paper's quantization schemes,
* :mod:`repro.quant.qexec` — the quantized forward executor, which
  applies the scheme at the same datapath points the FPGA accelerator
  does (weights, products/sums at the arithmetic width, layer outputs
  at the intermediate width, softmax at its own width) on the float64
  reference kernels, bit for bit the PE's integer datapath.
"""

from repro.quant.fixed_point import FixedPointFormat
from repro.quant.schemes import (
    FLOAT,
    HYBRID1,
    HYBRID2,
    SCHEMES,
    QuantizationScheme,
    uniform_scheme,
)
from repro.quant.qexec import QuantizedModel, pe_rounding, quantized_forward

__all__ = [
    "FixedPointFormat",
    "QuantizationScheme",
    "FLOAT",
    "HYBRID1",
    "HYBRID2",
    "SCHEMES",
    "uniform_scheme",
    "QuantizedModel",
    "pe_rounding",
    "quantized_forward",
]
