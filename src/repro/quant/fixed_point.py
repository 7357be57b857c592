"""Saturating fixed-point formats (Q notation).

A :class:`FixedPointFormat` is a signed two's-complement format with
``total_bits = 1 (sign) + integer_bits + fraction_bits``.  Quantization
rounds to the nearest representable step and saturates at the format
limits — the behaviour of the accelerator's datapath registers.

:func:`round_steps` is that rounding rule on values already in step
units (``value * 2**fraction_bits``).  :meth:`FixedPointFormat.quantize`
and the quantized executor's GEMM epilogue (:mod:`repro.quant.qexec`)
both go through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FixedPointFormat:
    """Signed fixed-point format.

    Attributes:
        total_bits: word length including the sign bit.
        fraction_bits: bits right of the binary point.
    """

    total_bits: int
    fraction_bits: int

    def __post_init__(self) -> None:
        if self.total_bits < 2:
            raise ValueError(
                f"total_bits must be >= 2, got {self.total_bits}"
            )
        if self.fraction_bits < 0:
            raise ValueError(
                f"fraction_bits must be >= 0, got {self.fraction_bits}"
            )
        if self.fraction_bits > self.total_bits - 1:
            raise ValueError(
                f"fraction_bits ({self.fraction_bits}) must leave room "
                f"for the sign bit in {self.total_bits} total bits"
            )

    @property
    def integer_bits(self) -> int:
        return self.total_bits - 1 - self.fraction_bits

    @property
    def resolution(self) -> float:
        """Size of one quantization step."""
        return 2.0 ** (-self.fraction_bits)

    @property
    def scale(self) -> float:
        """``2**fraction_bits``: one unit of value in steps."""
        return 2.0 ** self.fraction_bits

    @property
    def step_range(self) -> tuple[int, int]:
        """Smallest and largest step count of the word."""
        return -(2 ** (self.total_bits - 1)), 2 ** (self.total_bits - 1) - 1

    @property
    def max_value(self) -> float:
        """Largest representable value."""
        return self.step_range[1] * self.resolution

    @property
    def min_value(self) -> float:
        """Smallest (most negative) representable value."""
        return self.step_range[0] * self.resolution

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Round to the nearest representable value, saturating.

        Bit for bit ``clip(round(values / resolution)) * resolution``
        (scaling by a power of two is exact), computed in one fresh
        float64 array; ``values`` is never written.
        """
        values = np.asarray(values, dtype=float)
        out = np.multiply(values, self.scale, out=np.empty_like(values))
        round_steps(out, self)
        out *= self.resolution
        return out if out.ndim else out[()]

    def to_integers(self, values: np.ndarray) -> np.ndarray:
        """Integer (step-count) representation of ``quantize(values)``."""
        return np.round(
            self.quantize(values) / self.resolution
        ).astype(np.int64)

    def from_integers(self, steps: np.ndarray) -> np.ndarray:
        """Real values from an integer step-count representation."""
        return np.asarray(steps, dtype=np.int64) * self.resolution

    def quantization_noise_bound(self) -> float:
        """Worst-case rounding error (half a step) inside the range."""
        return self.resolution / 2.0

    def __str__(self) -> str:
        return (
            f"Q{self.integer_bits}.{self.fraction_bits}"
            f" ({self.total_bits} bits)"
        )


def round_steps(steps: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Round step counts half-to-even and saturate them to ``fmt``.

    Works in place on the float64 array ``steps`` and returns it.
    """
    np.rint(steps, out=steps)
    low, high = fmt.step_range
    return np.clip(steps, low, high, out=steps)
