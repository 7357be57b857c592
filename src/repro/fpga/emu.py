"""Bit-accurate integer-datapath PE emulation (the pe_test pipeline).

This is the model of the accelerator's processing element (Fig. 8b),
emulated the way the RTL testbench sees it: operands are converted to
their formats' raw integer step counts, multiplied per lane with a
DSP-style **segmented multiply**, aligned, and accumulated **at full
width** across the 16 lanes and all chunks; the result is quantized
exactly once at the end (``round_at_end``), or after every product,
tree level and accumulator add (``per_level``, the per-level-rounding
registers).

Datapath (``round_at_end``)::

    a ──to_steps──┐ 16 lanes   seg-mul    align      full-width
    b ──to_steps──┴──────────▶ hi·2^s+lo ─▶ <<,+ ──▶ Σ (int, fa+fb) ─┐
                                                                     │
        arithmetic grid ◀── saturate ◀── round-half-even shift ◀─────┘

Both modes share the integer front end; they differ only in *where*
rounding happens, so their divergence is exactly the per-product
rounding error: absent saturation, ``|per_level - round_at_end|`` is at
most ``(n + 1) / 2`` steps of the arithmetic format for an ``n``-element
dot product (``n/2`` from rounding each product, ``1/2`` from the final
round; tree and accumulator adds of on-grid values are exact).  The
golden testbench under ``tests/golden/pe`` pins both modes bit-for-bit
against a slow pure-Python reference and pins engineered cases where
the modes *must* diverge, so they can never be silently conflated.

Equivalence to :mod:`repro.quant.qexec`: the modeled executor computes
``fmt.quantize(x @ w)`` on the float64 reference kernels — a float dot
product rounded *once*.  Every partial sum is float64-exact for the
Table-III word lengths at realistic magnitudes, so that is precisely
the round-at-end integer pipeline: run under
``qexec.pe_rounding("round_at_end")`` the emulator is the modeled
path's oracle, and ``pe="emu-per-level"`` serves the ``per_level``
datapath.
"""

from __future__ import annotations

import math

import numpy as np

from repro.fpga.pe import PE_LANES, _TREE_LEVELS
from repro.quant.fixed_point import FixedPointFormat
from repro.quant.schemes import QuantizationScheme

#: Selectable rounding placements (see module docstring).
ROUNDING_MODES = ("round_at_end", "per_level")

#: Width of one DSP partial product (a DSP48-style 17-bit slice): lane
#: operands wider than this are split into ``hi * 2**17 + lo`` and
#: multiplied in two passes, exactly like the synthesized multiplier.
SEGMENT_BITS = 17

#: Extra pipeline stages of the round-at-end datapath beyond the chunk
#: stream: 2 segmented-multiply stages, the 4-level lane compressor,
#: the full-width accumulate and the single final round.
_ROUND_AT_END_DRAIN = 2 + _TREE_LEVELS + 1 + 1

#: Drain of the per-level pipeline: the tree levels plus the
#: accumulator register.
_PER_LEVEL_DRAIN = _TREE_LEVELS + 1

#: Accumulators wider than this fall back to Python-int (object dtype)
#: arithmetic; int64 matmuls would silently wrap past 63 bits.
_INT64_SAFE_BITS = 62


def segmented_multiply(
    ia: np.ndarray, ib: np.ndarray, segment_bits: int = SEGMENT_BITS
) -> np.ndarray:
    """Per-lane DSP-style product: ``ia * (hi(ib) << s) + ia * lo(ib)``.

    ``ib`` is split at ``segment_bits`` into an unsigned low slice and
    an arithmetically-shifted high slice (two's complement makes the
    split identity hold for negative operands); the two partial
    products are realigned and summed.  Bit-identical to the direct
    product — asserted by the testbench — but structured the way the
    FPGA multiplier actually computes it.
    """
    ia = np.asarray(ia)
    ib = np.asarray(ib)
    mask = (1 << segment_bits) - 1
    lo = ib & mask
    hi = (ib - lo) >> segment_bits
    return ((ia * hi) << segment_bits) + (ia * lo)


def _shift_round_half_even(steps: np.ndarray, shift: int) -> np.ndarray:
    """Integer ``round(steps / 2**shift)`` with ties to even.

    Matches :func:`numpy.round` (banker's rounding) exactly, but stays
    in integer arithmetic so it is correct beyond float64's 53-bit
    mantissa.  Negative ``shift`` is an exact left shift.
    """
    if shift <= 0:
        return steps << (-shift)
    floor = steps >> shift
    remainder = steps - (floor << shift)
    half = 1 << (shift - 1)
    round_up = (remainder > half) | (
        (remainder == half) & ((floor & 1) == 1)
    )
    return floor + round_up


def _saturate(steps: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Clip integer step counts to ``fmt``'s two's-complement range."""
    return np.clip(
        steps,
        -(2 ** (fmt.total_bits - 1)),
        2 ** (fmt.total_bits - 1) - 1,
    )


class EmulatedPE:
    """Integer-datapath emulation of one 16-lane processing element.

    Args:
        arithmetic: result format (``None`` = float passthrough — both
            rounding modes degenerate to a plain float GEMM).
        a_format: format of the streamed operand (activations); defaults
            to ``arithmetic``.
        b_format: format of the stationary operand (weights); defaults
            to ``arithmetic``.
        rounding_mode: ``"round_at_end"`` (pe_test pipeline, the
            hardware datapath) or ``"per_level"`` (every product, tree
            level and accumulator add rounded and saturated).
        lanes: multiplier lanes per chunk (the paper's PE has 16).

    Operands are quantized to their formats on entry (idempotent for
    on-grid inputs, saturating for out-of-range ones — exactly what the
    BRAM word width enforces).
    """

    def __init__(
        self,
        arithmetic: FixedPointFormat | None,
        a_format: FixedPointFormat | None = None,
        b_format: FixedPointFormat | None = None,
        rounding_mode: str = "round_at_end",
        lanes: int = PE_LANES,
    ) -> None:
        if rounding_mode not in ROUNDING_MODES:
            raise ValueError(
                f"rounding_mode must be one of {ROUNDING_MODES}, got "
                f"{rounding_mode!r}"
            )
        if lanes < 1 or lanes & (lanes - 1):
            raise ValueError(f"lanes must be a power of two, got {lanes}")
        self.arithmetic = arithmetic
        self.a_format = a_format if a_format is not None else arithmetic
        self.b_format = b_format if b_format is not None else arithmetic
        self.rounding_mode = rounding_mode
        self.lanes = lanes

    @classmethod
    def for_scheme(
        cls,
        scheme: QuantizationScheme,
        rounding_mode: str = "round_at_end",
    ) -> "EmulatedPE":
        """The PE computing ``activations @ weights`` under ``scheme``."""
        return cls(
            scheme.arithmetic,
            a_format=scheme.intermediate,
            b_format=scheme.weights,
            rounding_mode=rounding_mode,
        )

    # -- declared widths -------------------------------------------------

    def accumulator_bits(self, n: int) -> int:
        """Declared two's-complement width of the full accumulator.

        ``Ta + Tb`` bits hold any single product (including the
        ``-min * -min`` corner); ``ceil(log2(n))`` more absorb the sum
        of ``n`` of them.  The property suite asserts no accumulator
        value ever escapes this width.
        """
        if self.arithmetic is None:
            raise ValueError("float PEs have no integer accumulator")
        assert self.a_format is not None and self.b_format is not None
        growth = max(0, math.ceil(math.log2(max(n, 1))))
        return self.a_format.total_bits + self.b_format.total_bits + growth

    def n_chunks(self, n: int) -> int:
        """Chunks of ``lanes`` operand pairs streamed for length ``n``."""
        return max(1, -(-n // self.lanes))

    @property
    def pipeline_drain_cycles(self) -> int:
        """Cycles to flush the pipeline after the last chunk issues."""
        if self.rounding_mode == "per_level":
            return _PER_LEVEL_DRAIN
        return _ROUND_AT_END_DRAIN

    def dot_cycles(self, n: int) -> int:
        """Cycle count of one length-``n`` dot (II=1 chunk stream)."""
        return self.n_chunks(n) + self.pipeline_drain_cycles

    def matvec_cycles(self, n_rows: int, n: int) -> int:
        """Cycles for ``n_rows`` back-to-back dots (drain overlapped)."""
        return n_rows * self.n_chunks(n) + self.pipeline_drain_cycles

    # -- integer front end -----------------------------------------------

    def _steps(
        self, values: np.ndarray, fmt: FixedPointFormat, n: int
    ) -> np.ndarray:
        """Operand step counts, widened past int64 when ``n`` needs it."""
        steps = fmt.to_integers(values)
        if self.accumulator_bits(n) > _INT64_SAFE_BITS:
            return steps.astype(object)
        return steps

    def accumulate_steps(
        self, a: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        """Raw full-width accumulator of ``a . b`` in product steps.

        Exposed for the property suite: the returned integers carry
        ``a_format.fraction_bits + b_format.fraction_bits`` fraction
        bits and must fit :meth:`accumulator_bits` of the dot length.
        """
        if self.arithmetic is None:
            raise ValueError("float PEs have no integer accumulator")
        assert self.a_format is not None and self.b_format is not None
        a = np.asarray(a, dtype=float).ravel()
        b = np.asarray(b, dtype=float).ravel()
        ia = self._steps(a, self.a_format, a.size)
        ib = self._steps(b, self.b_format, b.size)
        acc = segmented_multiply(ia, ib).sum()
        return np.asarray(acc)

    # -- the three kernel shapes ------------------------------------------

    def matmul(
        self, a: np.ndarray, b: np.ndarray, scale: float = 1.0
    ) -> np.ndarray:
        """``(a @ b) * scale`` through the emulated datapath.

        ``a`` is ``(..., n)`` on the ``a_format`` grid, ``b`` is
        ``(n,)``/``(n, m)`` — or batched ``(..., n, m)`` with leading
        axes matching ``a``'s, the attention shapes — on the
        ``b_format`` grid; the result lands on the ``arithmetic`` grid.
        ``scale`` (attention's ``1/sqrt(d_k)``) is folded into the
        single final rounding stage — the hardware's post-accumulator
        scaling multiplier — via one float multiply, mirroring
        bit-for-bit what the fake-quantized executor rounds.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        inner = b.shape[0] if b.ndim == 1 else b.shape[-2]
        if a.shape[-1] != inner:
            raise ValueError(
                f"operand shapes {a.shape} and {b.shape} do not chain"
            )
        if b.ndim > 2 and a.shape[:-1][: b.ndim - 2] != b.shape[:-2]:
            raise ValueError(
                f"batched operand shapes {a.shape} and {b.shape} "
                f"disagree on their leading axes"
            )
        if self.arithmetic is None:
            result: np.ndarray = a @ b
            if scale != 1.0:
                result = result * scale
            return result
        assert self.a_format is not None and self.b_format is not None
        n = a.shape[-1]
        ia = self._steps(a, self.a_format, n)
        ib = self._steps(b, self.b_format, n)
        if self.rounding_mode == "per_level":
            steps = self._per_level_batched(ia, ib)
            if scale != 1.0:
                # Post-accumulator scaling multiplier: rescale the
                # on-grid accumulator and round once more.
                steps = np.round(steps.astype(float) * scale)
        else:
            acc = self._full_accumulate(ia, ib)
            if scale == 1.0:
                steps = _shift_round_half_even(acc, self._product_shift())
            else:
                # Fold the scale into the single final round: the
                # full-width accumulator value is float64-exact for
                # Table-III widths at realistic dot lengths, and
                # ``round((value * scale) / resolution)`` is
                # operation-for-operation what the fake-quantized
                # executor computes — so emulated attention scores stay
                # bit-equal to qexec's.
                fraction = (
                    self.a_format.fraction_bits
                    + self.b_format.fraction_bits
                )
                value = acc.astype(float) * 2.0 ** (-fraction)
                steps = np.round(
                    (value * scale) / self.arithmetic.resolution
                )
        steps = _saturate(steps, self.arithmetic)
        return self.arithmetic.from_integers(
            np.asarray(steps).astype(np.int64)
        )

    def matvec(
        self, matrix: np.ndarray, vector: np.ndarray, scale: float = 1.0
    ) -> tuple[np.ndarray, int]:
        """Row-wise ``matrix @ vector`` with the pipelined cycle count.

        ``matrix`` rows stream through the lanes (``a_format``), the
        stationary ``vector`` holds the weights (``b_format``); rows
        pipeline back to back, so the drain is paid once.
        """
        matrix = np.asarray(matrix, dtype=float)
        vector = np.asarray(vector, dtype=float).ravel()
        if matrix.ndim != 2 or matrix.shape[1] != vector.size:
            raise ValueError(
                f"matrix {matrix.shape} incompatible with vector of "
                f"size {vector.size}"
            )
        values = self.matmul(matrix, vector[:, None], scale=scale)[:, 0]
        return values, self.matvec_cycles(matrix.shape[0], vector.size)

    def dot(
        self, a: np.ndarray, b: np.ndarray, scale: float = 1.0
    ) -> tuple[float, int]:
        """One dot product: ``(value, cycles)``, zero-padded lanes free."""
        a = np.asarray(a, dtype=float).ravel()
        b = np.asarray(b, dtype=float).ravel()
        if a.shape != b.shape:
            raise ValueError(
                f"operand shapes differ: {a.shape} vs {b.shape}"
            )
        value = self.matmul(a[None, :], b[:, None], scale=scale)[0, 0]
        return float(value), self.dot_cycles(a.size)

    # -- rounding-mode back ends ------------------------------------------

    def _product_shift(self) -> int:
        """Right shift from product fraction bits to the result grid."""
        assert (
            self.arithmetic is not None
            and self.a_format is not None
            and self.b_format is not None
        )
        return (
            self.a_format.fraction_bits
            + self.b_format.fraction_bits
            - self.arithmetic.fraction_bits
        )

    def _full_accumulate(
        self, ia: np.ndarray, ib: np.ndarray
    ) -> np.ndarray:
        """Full-width integer accumulator of the round-at-end pipeline.

        The lane/chunk structure is immaterial here — integer addition
        is exact and associative, so the packed ``ia @ ib`` (with the
        segmented multiply distributed over the sum) *is* the lane-wise
        pipeline's accumulator, just computed as one GEMM.
        """
        mask = (1 << SEGMENT_BITS) - 1
        lo = ib & mask
        hi = (ib - lo) >> SEGMENT_BITS
        acc: np.ndarray = ((ia @ hi) << SEGMENT_BITS) + (ia @ lo)
        return acc

    def _per_level_batched(
        self, ia: np.ndarray, ib: np.ndarray
    ) -> np.ndarray:
        """Slice a batched stationary operand into 2-D tree reductions."""
        if ib.ndim <= 2:
            return self._per_level_steps(ia, ib)
        batch = ib.shape[:-2]
        first = self._per_level_steps(
            ia[(0,) * len(batch)], ib[(0,) * len(batch)]
        )
        out = np.empty(batch + first.shape, dtype=first.dtype)
        out[(0,) * len(batch)] = first
        for index in np.ndindex(*batch):
            if any(index):
                out[index] = self._per_level_steps(ia[index], ib[index])
        return out

    def _per_level_steps(
        self, ia: np.ndarray, ib: np.ndarray
    ) -> np.ndarray:
        """Per-product round + saturating tree/accumulator adds.

        Rounding a sum of on-grid values is the identity, so quantizing
        after every tree level reduces to the saturation this path
        applies after every add.
        """
        assert self.arithmetic is not None
        shift = self._product_shift()
        n = ia.shape[-1]
        chunks = self.n_chunks(n)
        padded = chunks * self.lanes
        ia_pad = np.zeros(ia.shape[:-1] + (padded,), dtype=ia.dtype)
        ia_pad[..., :n] = ia
        ib_pad = np.zeros((padded,) + ib.shape[1:], dtype=ib.dtype)
        ib_pad[:n] = ib

        batch = ia_pad.reshape(-1, padded)
        m = ib_pad.reshape(padded, -1).shape[1]
        out = np.zeros((batch.shape[0], m), dtype=ia.dtype)
        # Per-lane product tensors are (rows, padded, m); bound the
        # temporary to ~32 MB by slabbing the row axis.
        max_cells = 1 << 22
        rows_per_slab = max(1, max_cells // max(1, padded * m))
        for start in range(0, batch.shape[0], rows_per_slab):
            rows = batch[start:start + rows_per_slab]
            products = segmented_multiply(
                rows[:, :, None], ib_pad.reshape(padded, -1)[None, :, :]
            )
            lanewise = _saturate(
                _shift_round_half_even(products, shift), self.arithmetic
            )
            tree = lanewise.reshape(
                rows.shape[0], chunks, self.lanes, m
            )
            for _ in range(_TREE_LEVELS):
                tree = _saturate(
                    tree[:, :, 0::2, :] + tree[:, :, 1::2, :],
                    self.arithmetic,
                )
            accumulator = np.zeros((rows.shape[0], m), dtype=ia.dtype)
            for chunk in range(chunks):
                accumulator = _saturate(
                    accumulator + tree[:, chunk, 0, :], self.arithmetic
                )
            out[start:start + rows.shape[0]] = accumulator
        return out.reshape(ia.shape[:-1] + ib.shape[1:])

    def __repr__(self) -> str:
        fmt = "float" if self.arithmetic is None else str(self.arithmetic)
        return (
            f"<EmulatedPE {fmt} mode={self.rounding_mode} "
            f"lanes={self.lanes}>"
        )
