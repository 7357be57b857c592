"""The paper's quantization schemes (Table III and Section IV-A).

A scheme assigns a fixed-point format (or float) to each datapath role:

==================  =========================================
role                where it applies
==================  =========================================
``weights``         model parameters, quantized on every forward
``arithmetic``      multiply/add results inside the PEs, biases
``intermediate``    layer outputs written back to BRAM
``softmax``         the softmax unit's output probabilities
==================  =========================================

Table III:

============  ========  =========  ============  ============
scheme        weights   softmax    mul/add ops   intermediate
============  ========  =========  ============  ============
Hybrid-1      8 bits    24 bits    20 bits       20 bits
Hybrid-2      8 bits    24 bits    16 bits       16 bits
============  ========  =========  ============  ============

Uniform schemes (24 / 20 / 16 bits) use the same width for every role
except softmax probabilities, which always keep at least their own
format's fraction budget.

Fraction-bit allocation: inputs and targets live in [-1, 1], weights stay
within (-2, 2) (Q1.x), softmax outputs within [0, 1] (Q1.x), and
arithmetic/intermediate values get 5 integer bits of accumulation
headroom (Q5.x) — matching the adder-tree growth of a 16-input PE.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.quant.fixed_point import FixedPointFormat

_ARITH_INT_BITS = 5


def _weights_format(bits: int) -> FixedPointFormat:
    return FixedPointFormat(total_bits=bits, fraction_bits=bits - 2)


def _softmax_format(bits: int) -> FixedPointFormat:
    return FixedPointFormat(total_bits=bits, fraction_bits=bits - 2)


def _arith_format(bits: int) -> FixedPointFormat:
    return FixedPointFormat(
        total_bits=bits, fraction_bits=bits - 1 - _ARITH_INT_BITS
    )


@dataclass(frozen=True)
class QuantizationScheme:
    """Formats per datapath role; ``None`` everywhere = float reference."""

    name: str
    weights: FixedPointFormat | None
    softmax: FixedPointFormat | None
    arithmetic: FixedPointFormat | None
    intermediate: FixedPointFormat | None

    @property
    def is_float(self) -> bool:
        return (
            self.weights is None
            and self.softmax is None
            and self.arithmetic is None
            and self.intermediate is None
        )

    def role_bits(self, role: str) -> int | None:
        """Word length of a role (None = float)."""
        fmt = getattr(self, role)
        return None if fmt is None else fmt.total_bits


FLOAT = QuantizationScheme(
    name="float", weights=None, softmax=None, arithmetic=None,
    intermediate=None,
)


def uniform_scheme(bits: int) -> QuantizationScheme:
    """Uniform quantization: every role at ``bits`` (paper's 24/20/16)."""
    if bits < 8:
        raise ValueError(f"uniform schemes need >= 8 bits, got {bits}")
    return QuantizationScheme(
        name=f"{bits} bits",
        weights=_weights_format(bits),
        softmax=_softmax_format(bits),
        arithmetic=_arith_format(bits),
        intermediate=_arith_format(bits),
    )


HYBRID1 = QuantizationScheme(
    name="hybrid-1",
    weights=_weights_format(8),
    softmax=_softmax_format(24),
    arithmetic=_arith_format(20),
    intermediate=_arith_format(20),
)

HYBRID2 = QuantizationScheme(
    name="hybrid-2",
    weights=_weights_format(8),
    softmax=_softmax_format(24),
    arithmetic=_arith_format(16),
    intermediate=_arith_format(16),
)

SCHEMES: dict[str, QuantizationScheme] = {
    "float": FLOAT,
    "24 bits": uniform_scheme(24),
    "20 bits": uniform_scheme(20),
    "16 bits": uniform_scheme(16),
    "hybrid-1": HYBRID1,
    "hybrid-2": HYBRID2,
}
