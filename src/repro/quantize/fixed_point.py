"""Saturating fixed-point arithmetic for message quantization.

The paper cites [9]: a 6-bit message quantization costs only ~0.1 dB
versus infinite precision, and [6]: ~0.15–0.2 dB for 5 bits.  Messages are
stored as symmetric two's-complement integers with a configurable number of
fractional bits; all arithmetic saturates (wrapping would destroy BP's
monotonicity and is never done in decoder hardware).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FixedPointFormat:
    """A symmetric saturating fixed-point number format.

    Attributes
    ----------
    total_bits:
        Word width including sign.  A 6-bit format represents integers in
        ``[-31, +31]`` (symmetric: −32 is excluded so magnitude networks
        and sign-magnitude RAM layouts behave identically).
    frac_bits:
        Binary point position: real value = integer / 2**frac_bits.
    """

    total_bits: int
    frac_bits: int = 2

    def __post_init__(self) -> None:
        if self.total_bits < 2:
            raise ValueError("need at least a sign and one magnitude bit")
        if self.frac_bits < 0 or self.frac_bits >= self.total_bits:
            raise ValueError("fractional bits must fit inside the word")

    # ------------------------------------------------------------------
    @property
    def max_int(self) -> int:
        """Largest representable integer (symmetric clipping bound)."""
        return (1 << (self.total_bits - 1)) - 1

    @property
    def min_int(self) -> int:
        """Smallest representable integer (= −max_int, symmetric)."""
        return -self.max_int

    @property
    def scale(self) -> float:
        """Real value of one LSB."""
        return 2.0 ** (-self.frac_bits)

    @property
    def max_real(self) -> float:
        """Largest representable real value."""
        return self.max_int * self.scale

    @property
    def n_levels(self) -> int:
        """Number of representable levels."""
        return 2 * self.max_int + 1

    @property
    def int_dtype(self) -> np.dtype:
        """Narrowest signed integer dtype holding every representable
        value (``int8`` up to 8 bits)."""
        for dtype in (np.int8, np.int16, np.int32):
            if np.iinfo(dtype).bits >= self.total_bits:
                return np.dtype(dtype)
        return np.dtype(np.int64)

    # ------------------------------------------------------------------
    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Real values → saturated integer representation (int32).

        Vectorized over any input shape (single frames and
        ``(frames, n)`` batches alike).  NaN/infinite inputs raise: a
        NaN would otherwise survive ``clip`` and wrap to an arbitrary
        integer in the ``astype``, silently corrupting the decode.
        """
        values = np.asarray(values, dtype=np.float64)
        check_finite(values)
        # One float64 buffer, rounded and clipped in place; the caller's
        # array is never written.
        scaled = values / self.scale
        np.round(scaled, out=scaled)
        np.clip(scaled, self.min_int, self.max_int, out=scaled)
        return scaled.astype(np.int32)

    def dequantize(self, ints: np.ndarray) -> np.ndarray:
        """Integer representation → real values."""
        return np.asarray(ints, dtype=np.float64) * self.scale

    def saturate(self, ints: np.ndarray) -> np.ndarray:
        """Clip integer values into the representable range."""
        return np.clip(ints, self.min_int, self.max_int).astype(np.int32)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Saturating addition on integer representations."""
        return self.saturate(
            np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)
        )

    def sum(self, values: np.ndarray, axis=None) -> np.ndarray:
        """Saturating sum (wide accumulate, single final saturation).

        Decoder hardware accumulates variable-node sums in a wider adder
        and saturates once at the output, which this mirrors.
        """
        total = np.sum(np.asarray(values, dtype=np.int64), axis=axis)
        return self.saturate(total)

    def representable_values(self) -> np.ndarray:
        """All representable real values, ascending (for tests/plots)."""
        return (
            np.arange(self.min_int, self.max_int + 1, dtype=np.int64)
            * self.scale
        )


def check_finite(values: np.ndarray) -> None:
    """Raise ``ValueError`` if ``values`` holds a NaN or an infinity.

    NaN propagates through min and max, and an infinity shows up as
    one of them: two reductions, no boolean temporary.
    """
    if values.size and not (
        np.isfinite(values.min()) and np.isfinite(values.max())
    ):
        raise ValueError(
            "channel LLRs must be finite; got NaN or infinity "
            "(int conversion would silently wrap)"
        )


def quantize_llrs(
    llrs: np.ndarray, fmt: FixedPointFormat, channel_scale: float = 1.0
) -> np.ndarray:
    """Channel LLRs → a fixed-point decoder's integer input.

    Exactly ``fmt.quantize(llrs * channel_scale)``, returned in
    ``fmt.int_dtype`` (``int8`` for the 6-bit format) instead of int32,
    for any input shape.  The batched decoders' ``quantize_channel``
    and the serve plane's admission both call it, so a frame is held
    in the integers the decoder reads from the moment it is admitted.

    Finiteness is tested on the input: a finite LLR too large to scale
    (1e308) saturates like any strong LLR, only NaN and infinity raise.
    Multiplying by ``2**frac_bits`` gives the same double as
    ``fmt.quantize``'s division by ``fmt.scale`` (a power of two),
    overflow included, and rounding is half to even in both.
    """
    values = np.asarray(llrs, dtype=np.float64)
    check_finite(values)
    if channel_scale != 1.0:
        scaled = values * channel_scale
        scaled *= 2.0 ** fmt.frac_bits
    else:
        scaled = values * 2.0 ** fmt.frac_bits
    np.rint(scaled, out=scaled)
    np.clip(scaled, fmt.min_int, fmt.max_int, out=scaled)
    return scaled.astype(fmt.int_dtype)


#: The paper's reference formats: 6-bit messages (synthesis results of
#: Table 3) and the 5-bit variant whose extra loss [6] quantifies.
MESSAGE_6BIT = FixedPointFormat(total_bits=6, frac_bits=2)
MESSAGE_5BIT = FixedPointFormat(total_bits=5, frac_bits=1)
