"""Property-based tests for fixed-point formats.

The old point checks (one value each for rounding, saturation, range)
are generalized into hypothesis properties quantified over *random
formats and random values*: round-trip, saturation, idempotence,
error bounds, grid membership and monotonicity under random scales.
A few constructive unit tests remain for the exact Q-notation
arithmetic the properties cannot pin down.  ``TestTextbookFormula``
pins ``quantize`` bit for bit to ``clip(round(v / res)) * res`` over
every input the formula defines: ties, signed zeros, infinities, NaN,
float32 and integer arrays, strided views and scalars.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.quant.fixed_point import FixedPointFormat


@st.composite
def formats(draw) -> FixedPointFormat:
    """Any legal format: 3..26 total bits, every fraction split."""
    total = draw(st.integers(min_value=3, max_value=26))
    fraction = draw(st.integers(min_value=0, max_value=total - 1))
    return FixedPointFormat(total_bits=total, fraction_bits=fraction)


finite_values = st.lists(
    st.floats(
        min_value=-1e6, max_value=1e6,
        allow_nan=False, allow_infinity=False,
    ),
    min_size=1,
    max_size=32,
)


class TestFormatBasics:
    def test_resolution(self):
        fmt = FixedPointFormat(total_bits=8, fraction_bits=6)
        assert fmt.resolution == pytest.approx(1.0 / 64)

    def test_range(self):
        fmt = FixedPointFormat(total_bits=8, fraction_bits=6)
        assert fmt.max_value == pytest.approx(127.0 / 64)
        assert fmt.min_value == pytest.approx(-2.0)

    def test_rejects_bad_configs(self):
        with pytest.raises(ValueError):
            FixedPointFormat(total_bits=1, fraction_bits=0)
        with pytest.raises(ValueError):
            FixedPointFormat(total_bits=8, fraction_bits=8)
        with pytest.raises(ValueError):
            FixedPointFormat(total_bits=8, fraction_bits=-1)

    def test_str_q_notation(self):
        fmt = FixedPointFormat(total_bits=16, fraction_bits=10)
        assert "Q5.10" in str(fmt)

    @given(formats())
    def test_range_is_consistent_with_bit_budget(self, fmt):
        # 2^total representable steps, asymmetric two's complement.
        n_steps = (
            round((fmt.max_value - fmt.min_value) / fmt.resolution) + 1
        )
        assert n_steps == 2**fmt.total_bits
        assert fmt.min_value < 0 < fmt.max_value


class TestQuantizeProperties:
    @given(formats(), finite_values)
    def test_idempotent(self, fmt, values):
        once = fmt.quantize(np.asarray(values))
        assert np.array_equal(once, fmt.quantize(once))

    @given(formats(), finite_values)
    def test_saturation(self, fmt, values):
        """Everything at/above the limits maps exactly onto them."""
        values = np.asarray(values)
        q = fmt.quantize(values)
        assert np.all(q <= fmt.max_value)
        assert np.all(q >= fmt.min_value)
        assert np.array_equal(
            q[values >= fmt.max_value],
            np.full((values >= fmt.max_value).sum(), fmt.max_value),
        )
        assert np.array_equal(
            q[values <= fmt.min_value],
            np.full((values <= fmt.min_value).sum(), fmt.min_value),
        )

    @given(formats(), finite_values)
    def test_error_bounded_by_half_step_inside_range(self, fmt, values):
        values = np.asarray(values)
        in_range = (values >= fmt.min_value) & (values <= fmt.max_value)
        error = np.abs(fmt.quantize(values) - values)
        assert np.all(
            error[in_range]
            <= fmt.quantization_noise_bound() * (1 + 1e-12) + 1e-300
        )

    @given(formats(), finite_values)
    def test_grid_membership(self, fmt, values):
        """Outputs are integer multiples of the resolution — i.e. the
        integer round trip is exact."""
        q = fmt.quantize(np.asarray(values))
        assert np.array_equal(
            fmt.from_integers(fmt.to_integers(values)), q
        )

    @given(
        formats(),
        finite_values,
        st.floats(min_value=1e-3, max_value=1e3,
                  allow_nan=False, allow_infinity=False),
    )
    def test_monotone_under_random_scales(self, fmt, values, scale):
        """Quantization never reorders values, at any input scale."""
        scaled = np.sort(np.asarray(values)) * scale
        q = fmt.quantize(scaled)
        assert np.all(np.diff(q) >= 0.0)

    @given(formats(), finite_values)
    def test_integer_codes_fit_the_word(self, fmt, values):
        codes = fmt.to_integers(values)
        assert codes.max(initial=0) <= 2 ** (fmt.total_bits - 1) - 1
        assert codes.min(initial=0) >= -(2 ** (fmt.total_bits - 1))

    @given(st.data())
    def test_finer_fraction_never_increases_error(self, data):
        """Adding fraction bits (same value range) only refines the
        grid, so the rounding error cannot grow."""
        total = data.draw(st.integers(min_value=4, max_value=20))
        fraction = data.draw(st.integers(min_value=0, max_value=total - 2))
        coarse = FixedPointFormat(total, fraction)
        fine = FixedPointFormat(total + 1, fraction + 1)
        values = np.asarray(
            data.draw(
                st.lists(
                    st.floats(
                        min_value=float(coarse.min_value),
                        max_value=float(coarse.max_value),
                        allow_nan=False, allow_infinity=False,
                    ),
                    min_size=1,
                    max_size=16,
                )
            )
        )
        err_coarse = np.abs(coarse.quantize(values) - values)
        err_fine = np.abs(fine.quantize(values) - values)
        assert np.all(err_fine <= err_coarse + 1e-300)


def textbook(fmt: FixedPointFormat, values) -> np.ndarray:
    """``clip(round(v / res), lo, hi) * res`` on the float64 input."""
    values = np.asarray(values, dtype=float)
    low = -(2 ** (fmt.total_bits - 1))
    high = 2 ** (fmt.total_bits - 1) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        return np.clip(np.round(values / fmt.resolution), low, high) * (
            fmt.resolution
        )


SPECIAL_VALUES = (0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300)


@st.composite
def quantize_inputs(draw):
    """A format and an array of any dtype/layout with ties and specials."""
    fmt = draw(formats())
    low, high = -(2 ** (fmt.total_bits - 1)), 2 ** (fmt.total_bits - 1)
    tie = st.integers(min_value=low - 4, max_value=high + 4).map(
        lambda k: (k + 0.5) * fmt.resolution
    )
    element = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        tie,
        st.sampled_from(SPECIAL_VALUES),
    )
    values = np.asarray(draw(st.lists(element, min_size=2, max_size=32)))
    kind = draw(st.sampled_from(("float64", "float32", "int64")))
    if kind == "float32":
        with np.errstate(over="ignore"):
            values = values.astype(np.float32)
    elif kind == "int64":
        values = np.asarray(
            draw(st.lists(st.integers(-(2**62), 2**62), min_size=2,
                          max_size=32)),
            dtype=np.int64,
        )
    layout = draw(st.sampled_from(("contiguous", "strided", "reversed",
                                   "transposed")))
    if layout == "strided":
        values = values[::2]
    elif layout == "reversed":
        values = values[::-1]
    elif layout == "transposed":
        values = values[: 2 * (values.size // 2)].reshape(2, -1).T
    return fmt, values


def assert_bitwise(actual, expected) -> None:
    actual = np.asarray(actual)
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestTextbookFormula:
    @given(quantize_inputs())
    def test_bitwise_textbook_and_input_untouched(self, case):
        fmt, values = case
        before = values.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            result = fmt.quantize(values)
        assert_bitwise(result, textbook(fmt, values))
        assert not np.shares_memory(result, values)
        assert values.tobytes() == before.tobytes()

    @given(formats(), st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from(SPECIAL_VALUES),
        st.integers(-(2**40), 2**40),
    ))
    def test_scalars_stay_scalars(self, fmt, value):
        for scalar in (value, np.asarray(value), np.float64(value)):
            with np.errstate(over="ignore", invalid="ignore"):
                result = fmt.quantize(scalar)
            assert np.ndim(result) == 0
            assert isinstance(result, np.float64)
            assert_bitwise(result, textbook(fmt, value))

    def test_half_step_ties_round_to_even(self):
        fmt = FixedPointFormat(total_bits=8, fraction_bits=2)
        ties = np.array([0.125, 0.375, -0.125, -0.375, 31.875, -32.125])
        assert_bitwise(
            fmt.quantize(ties),
            np.array([0.0, 0.5, -0.0, -0.5, 31.75, -32.0]),
        )
