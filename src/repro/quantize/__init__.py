"""Fixed-point number formats and saturating arithmetic."""

from .fixed_point import (
    MESSAGE_5BIT,
    MESSAGE_6BIT,
    FixedPointFormat,
    quantize_llrs,
)

__all__ = [
    "FixedPointFormat",
    "MESSAGE_5BIT",
    "MESSAGE_6BIT",
    "quantize_llrs",
]
