"""Unit tests for the integer-datapath PE emulator (repro.fpga.emu).

The golden testbench (``tests/golden/pe``) certifies bit-exactness
against the slow reference model; this file covers the structural
contracts — segmented-multiply identity, mode semantics, equivalence to
the modeled datapath it claims to reproduce, cycle accounting, and the
accumulator-width declaration.
"""

import numpy as np
import pytest

from repro.fpga.emu import (
    ROUNDING_MODES,
    SEGMENT_BITS,
    EmulatedPE,
    segmented_multiply,
)
from repro.fpga.pe import PE_LANES
from repro.quant.schemes import SCHEMES
from tests.golden.pe.reference import reference_dot

QUANTIZED = [name for name, s in SCHEMES.items() if not s.is_float]


@pytest.fixture(params=QUANTIZED)
def scheme(request):
    return SCHEMES[request.param]


def on_grid_operands(rng, scheme, shape_a, shape_b):
    """Random operands already snapped to their role grids."""
    a = scheme.intermediate.quantize(rng.uniform(-4.0, 4.0, shape_a))
    b = scheme.weights.quantize(rng.uniform(-1.5, 1.5, shape_b))
    return a, b


class TestSegmentedMultiply:
    def test_identity_on_full_width_operands(self, rng):
        ia = rng.integers(-(2**23), 2**23, 500)
        ib = rng.integers(-(2**23), 2**23, 500)
        assert np.array_equal(segmented_multiply(ia, ib), ia * ib)

    def test_identity_at_sign_and_segment_boundaries(self):
        edge = np.array(
            [0, 1, -1, (1 << SEGMENT_BITS) - 1, 1 << SEGMENT_BITS,
             -(1 << SEGMENT_BITS), 2**23 - 1, -(2**23)],
            dtype=np.int64,
        )
        ia, ib = np.meshgrid(edge, edge)
        assert np.array_equal(
            segmented_multiply(ia.ravel(), ib.ravel()),
            ia.ravel() * ib.ravel(),
        )


class TestRoundAtEnd:
    """round_at_end == a float dot rounded once (qexec semantics)."""

    def test_matmul_matches_single_round_reference(self, rng, scheme):
        a, b = on_grid_operands(rng, scheme, (9, 37), (37, 6))
        pe = EmulatedPE.for_scheme(scheme)
        assert np.array_equal(
            pe.matmul(a, b), scheme.arithmetic.quantize(a @ b)
        )

    def test_scale_folds_into_the_final_round(self, rng, scheme):
        a, b = on_grid_operands(rng, scheme, (4, 32), (32, 4))
        scale = 1.0 / np.sqrt(32.0)  # not a power of two
        pe = EmulatedPE.for_scheme(scheme)
        assert np.array_equal(
            pe.matmul(a, b, scale=scale),
            scheme.arithmetic.quantize((a @ b) * scale),
        )

    def test_batched_stationary_operand(self, rng, scheme):
        # The attention shapes: (B, H, T, k) @ (B, H, k, S).
        a = scheme.intermediate.quantize(
            rng.uniform(-2, 2, (2, 3, 5, 8))
        )
        b = scheme.intermediate.quantize(
            rng.uniform(-2, 2, (2, 3, 8, 5))
        )
        pe = EmulatedPE(
            scheme.arithmetic, a_format=scheme.intermediate,
            b_format=scheme.intermediate,
        )
        assert np.array_equal(
            pe.matmul(a, b), scheme.arithmetic.quantize(a @ b)
        )

    def test_saturates_at_grid_limits(self, scheme):
        arith = scheme.arithmetic
        a = np.full(32, scheme.intermediate.max_value)
        b = np.full(32, scheme.weights.max_value)
        pe = EmulatedPE.for_scheme(scheme)
        value, _ = pe.dot(a, b)
        assert value == arith.max_value
        value, _ = pe.dot(a, -np.asarray(b))
        assert value == arith.min_value


class TestPerLevel:
    """per_level == the slow reference's per-level pipeline, lane for
    lane, with the per-level drain."""

    def test_dot_bit_matches_the_reference(self, rng, scheme):
        pe = EmulatedPE.for_scheme(scheme, rounding_mode="per_level")
        for n in (1, 16, 17, 48):
            a, b = on_grid_operands(rng, scheme, n, n)
            value, cycles = pe.dot(a, b)
            assert value == reference_dot(
                a, b, scheme, rounding_mode="per_level"
            )
            assert cycles == -(-n // PE_LANES) + 5

    def test_matvec_bit_matches_the_reference(self, rng, scheme):
        a, b = on_grid_operands(rng, scheme, (7, 33), 33)
        pe = EmulatedPE.for_scheme(scheme, rounding_mode="per_level")
        values, cycles = pe.matvec(a, b)
        expected = [
            reference_dot(row, b, scheme, rounding_mode="per_level")
            for row in a
        ]
        assert np.array_equal(values, expected)
        # Rows pipeline back to back: the drain is paid once.
        assert cycles == 7 * -(-33 // PE_LANES) + 5

    def test_diverges_from_round_at_end_where_products_round(self):
        # Products landing exactly between arithmetic steps round per
        # product in per_level but survive at full precision into the
        # round_at_end accumulator — the structural difference between
        # the two pipelines.
        scheme = SCHEMES["16 bits"]
        half_step = scheme.arithmetic.resolution / 2.0
        a = np.full(16, scheme.intermediate.quantize(1.0))
        b = np.full(16, scheme.weights.quantize(half_step))
        rae, _ = EmulatedPE.for_scheme(scheme).dot(a, b)
        pl, _ = EmulatedPE.for_scheme(
            scheme, rounding_mode="per_level"
        ).dot(a, b)
        assert rae != pl


class TestShapesAndConsistency:
    def test_matmul_equals_stacked_matvec_equals_dot(self, rng, scheme):
        a, b = on_grid_operands(rng, scheme, (5, 21), (21, 3))
        pe = EmulatedPE.for_scheme(scheme)
        full = pe.matmul(a, b)
        for col in range(b.shape[1]):
            values, _ = pe.matvec(a, b[:, col])
            assert np.array_equal(values, full[:, col])
            for row in range(a.shape[0]):
                value, _ = pe.dot(a[row], b[:, col])
                assert value == full[row, col]

    def test_zero_padding_lanes_are_no_ops(self, rng, scheme):
        a, b = on_grid_operands(rng, scheme, 13, 13)
        pe = EmulatedPE.for_scheme(scheme)
        value, _ = pe.dot(a, b)
        padded, _ = pe.dot(
            np.concatenate([a, np.zeros(19)]),
            np.concatenate([b, np.zeros(19)]),
        )
        assert value == padded

    def test_float_mode_is_a_plain_gemm(self, rng):
        pe = EmulatedPE(None)
        a, b = rng.normal(size=(4, 9)), rng.normal(size=(9, 2))
        assert np.array_equal(pe.matmul(a, b), a @ b)

    def test_rejects_unknown_rounding_mode(self):
        with pytest.raises(ValueError, match="rounding_mode"):
            EmulatedPE(SCHEMES["16 bits"].arithmetic, rounding_mode="x")

    def test_rejects_mismatched_operands(self):
        pe = EmulatedPE.for_scheme(SCHEMES["16 bits"])
        with pytest.raises(ValueError):
            pe.dot(np.zeros(4), np.zeros(5))
        with pytest.raises(ValueError):
            pe.matmul(np.zeros((2, 4)), np.zeros((5, 2)))

    def test_modes_registry_is_closed(self):
        assert ROUNDING_MODES == ("round_at_end", "per_level")


class TestCycles:
    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 48])
    def test_per_level_cycles_match_processing_element(self, n):
        scheme = SCHEMES["20 bits"]
        pe = EmulatedPE.for_scheme(scheme, rounding_mode="per_level")
        assert pe.dot_cycles(n) == max(1, -(-n // PE_LANES)) + 4 + 1

    @pytest.mark.parametrize("n", [0, 1, 16, 17, 48])
    def test_round_at_end_pays_the_deeper_pipeline(self, n):
        scheme = SCHEMES["20 bits"]
        rae = EmulatedPE.for_scheme(scheme)
        pl = EmulatedPE.for_scheme(scheme, rounding_mode="per_level")
        # 2 segmented-multiply stages + 1 final round, minus the
        # per-level path's nothing: 3 extra drain cycles.
        assert rae.dot_cycles(n) == pl.dot_cycles(n) + 3
        assert rae.matvec_cycles(7, n) == (
            7 * rae.n_chunks(n) + rae.pipeline_drain_cycles
        )


class TestAccumulatorWidth:
    def test_declared_width_fits_int64_for_table_iii(self):
        for name in QUANTIZED:
            pe = EmulatedPE.for_scheme(SCHEMES[name])
            assert pe.accumulator_bits(512) <= 62

    def test_worst_case_accumulation_stays_in_declared_width(self):
        scheme = SCHEMES["24 bits"]
        pe = EmulatedPE.for_scheme(scheme)
        n = 64
        a = np.full(n, scheme.intermediate.min_value)
        b = np.full(n, scheme.weights.min_value)
        acc = int(pe.accumulate_steps(a, b))
        bits = pe.accumulator_bits(n)
        assert -(2 ** (bits - 1)) <= acc < 2 ** (bits - 1)

    def test_float_pe_has_no_accumulator(self):
        with pytest.raises(ValueError):
            EmulatedPE(None).accumulator_bits(16)
