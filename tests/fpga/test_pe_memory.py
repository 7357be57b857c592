"""Unit tests for the PE datapath and BRAM model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpga.emu import EmulatedPE
from repro.fpga.memory import BramPlan, bram_blocks_for
from repro.fpga.pe import PE_LANES
from repro.quant.fixed_point import FixedPointFormat


@pytest.fixture
def arith():
    return FixedPointFormat(total_bits=20, fraction_bits=14)


def per_level(arithmetic=None) -> EmulatedPE:
    """A PE rounding after every product, tree level and accumulate."""
    return EmulatedPE(arithmetic, rounding_mode="per_level")


class TestPerLevelTree:
    def test_exact_sum_in_float_mode(self):
        values = np.arange(16, dtype=float)
        value, _ = per_level().dot(values, np.ones(PE_LANES))
        assert value == pytest.approx(values.sum())

    def test_rejects_non_power_of_two_lanes(self):
        with pytest.raises(ValueError, match="power of two"):
            EmulatedPE(None, rounding_mode="per_level", lanes=12)

    def test_quantized_result_on_grid(self, arith):
        rng = np.random.default_rng(0)
        out, _ = per_level(arith).dot(
            rng.uniform(-1, 1, PE_LANES), np.ones(PE_LANES)
        )
        steps = out / arith.resolution
        assert steps == pytest.approx(round(steps), abs=1e-9)

    def test_drain_is_log2_lanes_plus_accumulate(self):
        assert per_level().pipeline_drain_cycles == (
            int(np.log2(PE_LANES)) + 1
        )


class TestPerLevelPE:
    def test_float_dot_matches_numpy(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=37), rng.normal(size=37)
        value, cycles = per_level().dot(a, b)
        assert value == pytest.approx(np.dot(a, b))
        assert cycles == int(np.ceil(37 / PE_LANES)) + 5

    def test_quantized_dot_close_to_exact(self, arith):
        rng = np.random.default_rng(2)
        a = arith.quantize(rng.uniform(-1, 1, 64))
        b = arith.quantize(rng.uniform(-1, 1, 64))
        value, _ = per_level(arith).dot(a, b)
        assert value == pytest.approx(np.dot(a, b), abs=64 * arith.resolution)

    def test_matvec_matches_per_row_dots(self, arith):
        pe = per_level(arith)
        rng = np.random.default_rng(3)
        matrix = rng.uniform(-1, 1, (5, 20))
        vector = rng.uniform(-1, 1, 20)
        values, _ = pe.matvec(matrix, vector)
        expected = [pe.dot(matrix[i], vector)[0] for i in range(5)]
        assert np.allclose(values, expected)

    def test_rejects_mismatched_operands(self):
        with pytest.raises(ValueError):
            per_level().dot(np.zeros(4), np.zeros(5))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=70))
    def test_cycles_grow_with_chunks(self, n):
        _, cycles = per_level().dot(np.ones(n), np.ones(n))
        assert cycles == int(np.ceil(n / PE_LANES)) + 5

    def test_pe_lanes_matches_paper(self):
        # Paper Fig. 8(b): 16 element multiplications + adder tree.
        assert PE_LANES == 16

    def test_empty_vector_costs_one_chunk(self):
        # The hardware still issues one (all-zero) chunk for a length-0
        # stream: n_chunks is floored at 1, so the cycle count is
        # 1 chunk + 4 tree levels + 1 accumulate.
        value, cycles = per_level().dot(np.array([]), np.array([]))
        assert value == 0.0
        assert cycles == 1 + 4 + 1

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 31, 33, 48])
    def test_non_multiple_of_16_cycle_accounting(self, n):
        # Partial chunks are zero-padded to full lane occupancy; the
        # cycle model must charge ceil(n / 16) chunks, never round down.
        _, cycles = per_level().dot(np.ones(n), np.ones(n))
        assert cycles == -(-n // PE_LANES) + 5


class TestBram:
    def test_18bit_words_pack_two_per_row(self):
        wide = bram_blocks_for(1024, 20)
        narrow = bram_blocks_for(1024, 16)
        assert narrow <= wide / 1.5

    def test_full_width_words(self):
        # 1024 x 36-bit words = exactly one BRAM36.
        assert bram_blocks_for(1024, 36) == 1.0

    def test_zero_words_zero_blocks(self):
        assert bram_blocks_for(0, 16) == 0.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            bram_blocks_for(-1, 8)
        with pytest.raises(ValueError):
            bram_blocks_for(10, 0)

    def test_plan_accumulates(self):
        plan = BramPlan()
        plan.allocate("a", 1024, 36)
        plan.allocate("b", 2048, 36)
        assert plan.total_blocks == pytest.approx(3.0)
        assert "a" in plan.report()

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=64),
    )
    def test_monotone_in_words_and_bits(self, n_words, bits):
        assert bram_blocks_for(n_words + 1000, bits) >= bram_blocks_for(
            n_words, bits
        )
        assert bram_blocks_for(n_words, min(bits + 8, 64)) >= (
            bram_blocks_for(n_words, bits)
        )
