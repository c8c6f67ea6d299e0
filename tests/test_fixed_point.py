"""Tests for repro.quantize.fixed_point — saturating arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantize import (
    MESSAGE_5BIT,
    MESSAGE_6BIT,
    FixedPointFormat,
    quantize_llrs,
)


def test_six_bit_range():
    assert MESSAGE_6BIT.max_int == 31
    assert MESSAGE_6BIT.min_int == -31
    assert MESSAGE_6BIT.n_levels == 63


def test_five_bit_range():
    assert MESSAGE_5BIT.max_int == 15
    assert MESSAGE_5BIT.min_int == -15


def test_scale_and_max_real():
    fmt = FixedPointFormat(total_bits=6, frac_bits=2)
    assert fmt.scale == 0.25
    assert fmt.max_real == 7.75


def test_quantize_rounds_to_nearest():
    fmt = FixedPointFormat(total_bits=6, frac_bits=2)
    assert fmt.quantize(np.array([0.13]))[0] == 1  # 0.13/0.25 = 0.52 -> 1
    assert fmt.quantize(np.array([0.12]))[0] == 0
    assert fmt.quantize(np.array([-0.13]))[0] == -1


def test_quantize_saturates():
    fmt = FixedPointFormat(total_bits=6, frac_bits=2)
    assert fmt.quantize(np.array([100.0]))[0] == 31
    assert fmt.quantize(np.array([-100.0]))[0] == -31


@pytest.mark.parametrize("fmt", [MESSAGE_5BIT, MESSAGE_6BIT])
def test_quantize_matches_reference_form(fmt):
    """The in-place quantizer equals clip(round(x / scale)) exactly:
    ties at +-0.5, 1.5 and 2.5 LSB round half to even, +-0.0 give 0,
    and +-1e300 saturate."""
    lsb = fmt.scale
    ties = np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5]) * lsb
    extremes = np.array([0.0, -0.0, 1e300, -1e300])
    noise = np.random.default_rng(4).normal(0.0, 4.0, 200)
    values = np.concatenate([ties, extremes, noise]).reshape(2, -1)
    got = fmt.quantize(values)
    want = np.clip(np.round(values / lsb), fmt.min_int, fmt.max_int)
    assert got.dtype == np.int32
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got[0, :6], [0, 2, 2, 0, -2, -2])
    np.testing.assert_array_equal(
        got[0, 6:10], [0, 0, fmt.max_int, fmt.min_int]
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantize_rejects_non_finite_anywhere(bad):
    values = np.random.default_rng(5).normal(0.0, 4.0, (3, 400))
    values[2, 399] = bad
    with pytest.raises(ValueError, match="finite"):
        MESSAGE_6BIT.quantize(values)


@pytest.mark.parametrize("channel_scale", [1.0, 0.5])
@pytest.mark.parametrize(
    "fmt",
    [MESSAGE_6BIT, FixedPointFormat(5, 1), FixedPointFormat(8, 3)],
    ids=["6.2", "5.1", "8.3"],
)
def test_quantize_llrs_is_quantize_of_the_scaled_llrs(fmt, channel_scale):
    """The serve plane's and the batched decoders' quantizer gives the
    integers of ``fmt.quantize(x * channel_scale)`` in the format's
    narrow dtype: ties at +-0.5 and +-1.5 LSB round half to even, -0.0
    and subnormals give 0, and finite extremes saturate."""
    lsb = fmt.scale / channel_scale  # one LSB after scaling
    ties = np.array([0.5, -0.5, 1.5, -1.5]) * lsb
    tiny = np.array([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308])
    huge = np.finfo(np.float64).max
    extremes = np.array([1e308, -1e308, huge, -huge])
    noise = np.random.default_rng(7).normal(0.0, 6.0, (3, 500))
    values = np.concatenate([ties, tiny, extremes, noise.ravel()])
    with np.errstate(over="ignore"):  # the extremes overflow the scale
        for x in (values, values.reshape(4, -1)):
            got = quantize_llrs(x, fmt, channel_scale)
            assert got.dtype == fmt.int_dtype == np.int8
            np.testing.assert_array_equal(
                got, fmt.quantize(x * channel_scale)
            )
        got = quantize_llrs(values, fmt, channel_scale)
    np.testing.assert_array_equal(got[:4], [0, 0, 2, -2])
    np.testing.assert_array_equal(got[4:8], 0)
    np.testing.assert_array_equal(
        got[8:12], [fmt.max_int, fmt.min_int] * 2
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantize_llrs_rejects_non_finite(bad):
    values = np.random.default_rng(8).normal(0.0, 4.0, (2, 300))
    values[1, 123] = bad
    with pytest.raises(ValueError, match="finite"):
        quantize_llrs(values, MESSAGE_6BIT)
    with pytest.raises(ValueError, match="finite"):
        quantize_llrs(values, MESSAGE_6BIT, channel_scale=0.5)


def test_int_dtype_is_the_narrowest_that_holds_the_format():
    assert MESSAGE_6BIT.int_dtype == np.int8
    assert FixedPointFormat(8, 3).int_dtype == np.int8
    assert FixedPointFormat(9, 3).int_dtype == np.int16
    assert FixedPointFormat(16, 3).int_dtype == np.int16
    assert FixedPointFormat(17, 3).int_dtype == np.int32


def test_quantize_leaves_its_input_unwritten():
    values = np.random.default_rng(6).normal(0.0, 4.0, (4, 300))
    before = values.tobytes()
    MESSAGE_6BIT.quantize(values)
    assert values.tobytes() == before


def test_dequantize_inverts_on_representable():
    fmt = FixedPointFormat(total_bits=6, frac_bits=2)
    values = fmt.representable_values()
    assert np.array_equal(fmt.quantize(values), np.arange(-31, 32))
    assert np.allclose(fmt.dequantize(fmt.quantize(values)), values)


def test_add_saturates_both_directions():
    fmt = MESSAGE_6BIT
    assert fmt.add(np.array([30]), np.array([30]))[0] == 31
    assert fmt.add(np.array([-30]), np.array([-30]))[0] == -31
    assert fmt.add(np.array([10]), np.array([-3]))[0] == 7


def test_sum_wide_accumulation():
    fmt = MESSAGE_6BIT
    # Intermediate overflow must not corrupt the result: 31+31-31 = 31.
    vals = np.array([31, 31, -31])
    assert fmt.sum(vals) == 31


def test_invalid_formats_rejected():
    with pytest.raises(ValueError):
        FixedPointFormat(total_bits=1)
    with pytest.raises(ValueError):
        FixedPointFormat(total_bits=4, frac_bits=4)
    with pytest.raises(ValueError):
        FixedPointFormat(total_bits=4, frac_bits=-1)


@given(
    st.integers(min_value=2, max_value=12),
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=50,
    ),
)
@settings(max_examples=60, deadline=None)
def test_quantize_always_in_range(bits, values):
    fmt = FixedPointFormat(total_bits=bits, frac_bits=min(2, bits - 1))
    q = fmt.quantize(np.array(values))
    assert (q <= fmt.max_int).all()
    assert (q >= fmt.min_int).all()


@given(
    st.lists(
        st.integers(min_value=-200, max_value=200), min_size=1, max_size=30
    )
)
@settings(max_examples=60, deadline=None)
def test_saturate_is_idempotent(ints):
    fmt = MESSAGE_6BIT
    once = fmt.saturate(np.array(ints))
    assert np.array_equal(fmt.saturate(once), once)


@given(
    st.integers(min_value=-31, max_value=31),
    st.integers(min_value=-31, max_value=31),
)
@settings(max_examples=100, deadline=None)
def test_add_is_commutative_and_bounded(a, b):
    fmt = MESSAGE_6BIT
    ab = fmt.add(np.array([a]), np.array([b]))[0]
    ba = fmt.add(np.array([b]), np.array([a]))[0]
    assert ab == ba
    assert -31 <= ab <= 31
    # Saturating add equals clipped exact sum.
    assert ab == max(-31, min(31, a + b))


@given(st.integers(min_value=-31, max_value=31))
@settings(max_examples=50, deadline=None)
def test_quantization_symmetry(v):
    """Symmetric format: q(-x) == -q(x) exactly (no two's-complement
    asymmetry), required for decoder sign symmetry."""
    fmt = MESSAGE_6BIT
    x = v * fmt.scale
    assert fmt.quantize(np.array([-x]))[0] == -fmt.quantize(np.array([x]))[0]
