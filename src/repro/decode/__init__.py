"""LDPC decoders: two-phase BP, min-sum variants, zigzag schedule,
fixed-point implementations."""

from .backend import available_backends, backend_status, resolve_backend
from .batch import (
    BatchDecodeResult,
    BatchMinSumDecoder,
    BatchZigzagDecoder,
    DecoderSpec,
)
from .batch_quantized import (
    BatchQuantizedMinSumDecoder,
    BatchQuantizedZigzagDecoder,
)
from .bp import BeliefPropagationDecoder
from .hard import BitFlippingDecoder, GallagerBDecoder
from .layered import LayeredMinSumDecoder, sequential_block_layers
from .minsum import (
    MinSumDecoder,
    NormalizedMinSumDecoder,
    OffsetMinSumDecoder,
)
from .quantized import QuantizedMinSumDecoder, QuantizedZigzagDecoder
from .result import DecodeResult
from .zigzag import ZigzagDecoder

__all__ = [
    "BatchDecodeResult",
    "BatchMinSumDecoder",
    "BatchQuantizedMinSumDecoder",
    "BatchQuantizedZigzagDecoder",
    "BatchZigzagDecoder",
    "BeliefPropagationDecoder",
    "BitFlippingDecoder",
    "DecodeResult",
    "DecoderSpec",
    "GallagerBDecoder",
    "LayeredMinSumDecoder",
    "MinSumDecoder",
    "NormalizedMinSumDecoder",
    "OffsetMinSumDecoder",
    "QuantizedMinSumDecoder",
    "QuantizedZigzagDecoder",
    "ZigzagDecoder",
    "available_backends",
    "backend_status",
    "resolve_backend",
    "sequential_block_layers",
]
