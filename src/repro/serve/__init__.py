"""repro.serve — streaming decode service over the batched decoders.

The subsystem turns the offline Monte-Carlo decode stack into an
online service: requests enter a bounded queue, a fill-or-timeout
micro-batcher packs same-rate frames into ``(frames, n)`` batches for
the vectorized decoders, and a layered degradation policy (converged-
frame freezing → iteration shedding → deadline expiry → admission
rejection) keeps latency bounded under overload.  See
``docs/serving.md`` for the architecture tour.
"""

from .api import (
    REASON_BAD_FRAME,
    REASON_DEADLINE,
    REASON_DECODE_ERROR,
    REASON_QUEUE_FULL,
    REASON_WORKER_CRASH,
    STATUS_EXPIRED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_REJECTED,
    DecodeRequest,
    DecodeResult,
    ServeConfig,
)
from .batcher import MicroBatcher
from .bytestream import ByteStreamGateway, FrameOutcome
from .engine import DecodeService
from .fabric import DecodeFabric, FabricConfig
from .gateway import (
    FabricClient,
    FabricGateway,
    pack_bits_hex,
    run_remote_loadgen,
    serve_fabric,
    unpack_bits_hex,
)
from .loadgen import (
    FramePool,
    LoadgenResult,
    make_frame_pool,
    run_loadgen,
    sweep_offered_rates,
)
from .policy import IterationBudgetController
from .queue import BoundedRequestQueue
from .report import ServiceReport, snapshot_percentile

__all__ = [
    "BoundedRequestQueue",
    "ByteStreamGateway",
    "DecodeFabric",
    "DecodeRequest",
    "DecodeResult",
    "DecodeService",
    "FabricClient",
    "FabricConfig",
    "FabricGateway",
    "FrameOutcome",
    "FramePool",
    "IterationBudgetController",
    "LoadgenResult",
    "MicroBatcher",
    "REASON_BAD_FRAME",
    "REASON_DEADLINE",
    "REASON_DECODE_ERROR",
    "REASON_QUEUE_FULL",
    "REASON_WORKER_CRASH",
    "STATUS_EXPIRED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_REJECTED",
    "ServeConfig",
    "ServiceReport",
    "make_frame_pool",
    "pack_bits_hex",
    "run_loadgen",
    "run_remote_loadgen",
    "serve_fabric",
    "snapshot_percentile",
    "sweep_offered_rates",
    "unpack_bits_hex",
]
