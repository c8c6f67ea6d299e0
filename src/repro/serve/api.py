"""Request/result types and configuration of the decode service.

The service's unit of work is one noisy frame: a caller submits the
``(n,)`` channel-LLR vector of a received codeword, the service queues
it as a :class:`DecodeRequest` and the caller gets a
:class:`DecodeResult` carrying the hard-decision codeword bits (or a
typed rejection).  Everything that
shapes batching, deadlines and degradation lives in one
:class:`ServeConfig` value object so a service instance is fully
described by ``(code, config)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..decode.batch import DecoderSpec

# -- request lifecycle states ------------------------------------------
#: Decoded; ``bits``/``converged``/``iterations`` are populated.
STATUS_OK = "ok"
#: Never queued; ``reason`` says why (e.g. :data:`REASON_QUEUE_FULL`).
STATUS_REJECTED = "rejected"
#: Queued but dropped before decode because its deadline passed.
STATUS_EXPIRED = "expired"
#: Dispatched, but its batch kept crashing the workers it ran on
#: (:data:`REASON_WORKER_CRASH`) or its decode raised
#: (:data:`REASON_DECODE_ERROR`).
STATUS_FAILED = "failed"

# -- rejection / drop reasons ------------------------------------------
REASON_QUEUE_FULL = "queue_full"
REASON_DEADLINE = "deadline_expired"
#: A frame the service cannot decode (a NaN or infinite LLR, rejected
#: at admission; a failed frame check on the byte-stream path).
REASON_BAD_FRAME = "bad_frame"
REASON_WORKER_CRASH = "worker_crash"
REASON_DECODE_ERROR = "decode_error"


@dataclass(frozen=True)
class ServeConfig(DecoderSpec):
    """All serving knobs in one place.

    Batching
    --------
    ``max_batch`` frames are packed per decode call; a partial batch is
    flushed once its oldest request has lingered ``max_linger_ms``
    (fill-or-timeout).  ``queue_capacity`` bounds the request queue —
    a full queue rejects new work with :data:`REASON_QUEUE_FULL`
    (backpressure) instead of growing without bound.

    Degradation
    -----------
    ``deadline_ms`` is the default per-request deadline (``None`` means
    no deadline; a set one must be finite).  The iteration-budget
    controller runs every batch with the full ``max_iterations`` while
    the queue is below ``shed_start`` × capacity and sheds linearly
    down to ``min_iterations`` as the queue fills — the paper's §2.2
    observation that the zigzag schedule "saves about 10 iterations"
    turned into a live load-shedding knob (fewer iterations per frame =
    more frames per second, at a graceful BER cost).

    Decoder
    -------
    The decoder recipe is the inherited
    :class:`~repro.decode.batch.DecoderSpec` fields (``schedule``,
    ``normalization``, ``fmt``, ``channel_scale``, ``segments``,
    ``backend``) with the spec's defaults: the paper's 6-bit
    fixed-point zigzag path (``backend="cnative"`` decodes each batch
    in one compiled call — see :mod:`repro.decode.backend`; results are
    bit-identical across backends).  For the quantized schedules
    ``fmt`` and ``channel_scale`` also reach admission, which quantizes
    each frame once with them.  Construction rejects a recipe no code
    can make valid, so a pooled service fails here rather than in its
    workers; ``segments``, which depends on the code, is checked when a
    route is registered, also before any worker starts.  Workers and
    pool keys see only :attr:`decoder_spec`, so two services that
    differ only in batching share a supplied pool.
    ``workers > 1`` decodes batches on a persistent process pool (batch
    order deterministic).

    Pipelining
    ----------
    ``pipeline_depth`` bounds how many micro-batches the engine keeps
    in flight on each worker lane (the pooled service's one lane, each
    fabric worker's): while batch ``k`` decodes in a worker, batch
    ``k+1``'s LLR prep and batch ``k+2``'s formation proceed on the
    submitting side, and completions are drained non-blocking — the
    software mirror of the paper's double-buffered I/O RAM (the core
    decodes frame ``k`` while frame ``k+1`` streams in).  The pump
    never waits for the pool: with ``pipeline_depth`` batches in
    flight, due batches stay queued until one lands.  ``None`` (the
    default) resolves to 1 for the inline path and two per worker
    process on a lane (``2 * workers`` pooled, 2 per fabric worker);
    any depth produces results bit-identical to depth 1 — only
    wall-clock overlap changes.
    ``pipeline_depth > 1`` with ``workers == 1`` promotes the single
    worker to a dedicated child process so host-side prep and
    completion genuinely overlap its decode.
    """

    max_batch: int = 32
    max_linger_ms: float = 5.0
    queue_capacity: int = 128
    deadline_ms: Optional[float] = None
    max_iterations: int = 30
    min_iterations: int = 10
    shed_start: float = 0.5
    workers: int = 1
    #: Max micro-batches in flight per worker lane (``None`` = auto:
    #: 1 inline, 2 per worker process); see *Pipelining* above.
    pipeline_depth: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_batch < 1:
            raise ValueError("max_batch must be positive")
        if self.max_linger_ms < 0:
            raise ValueError("max_linger_ms must be non-negative")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be positive")
        if self.deadline_ms is not None and not (
            0 < self.deadline_ms < math.inf
        ):
            raise ValueError(
                "deadline_ms must be positive and finite when set"
            )
        if not 0 < self.min_iterations <= self.max_iterations:
            raise ValueError(
                "need 0 < min_iterations <= max_iterations"
            )
        if not 0.0 <= self.shed_start <= 1.0:
            raise ValueError("shed_start must be in [0, 1]")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.pipeline_depth is not None and self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be positive when set")

    @property
    def max_linger_s(self) -> float:
        """Linger bound in seconds."""
        return self.max_linger_ms / 1e3


@dataclass
class DecodeRequest:
    """One queued frame awaiting decode."""

    request_id: int
    #: The frame as its decoder reads it, made once at admission: the
    #: fixed-point integers of a quantized schedule (``(n,)`` ``int8``
    #: for the 6-bit format, ``channel_scale`` applied), float64 LLRs
    #: for a float schedule; ``None`` for a frame rejected as
    #: :data:`REASON_BAD_FRAME`.
    llrs: Optional[np.ndarray]
    #: Arrival timestamp on the service clock (seconds).
    arrival_s: float
    #: Absolute deadline on the service clock, or ``None``.
    deadline_s: Optional[float] = None
    #: MODCOD label of the frame (e.g. ``"1/2:bpsk:normal"``) for
    #: per-MODCOD accounting on the ACM path; a single-config service
    #: serves one code, so ``None`` means "the service's only config".
    modcod: Optional[str] = None

    def expired(self, now: float) -> bool:
        """True once the deadline (if any) has passed."""
        return self.deadline_s is not None and now >= self.deadline_s


@dataclass
class DecodeResult:
    """Outcome of one request — decoded bits or a typed drop.

    ``status`` is one of :data:`STATUS_OK` / :data:`STATUS_REJECTED` /
    :data:`STATUS_EXPIRED` / :data:`STATUS_FAILED`; only
    :data:`STATUS_OK` results carry bits.
    ``iteration_budget`` records the (possibly shed) budget the batch
    ran with, so callers can tell a full-quality decode from a degraded
    one even when both converge.
    """

    request_id: int
    status: str
    reason: Optional[str] = None
    bits: Optional[np.ndarray] = None
    converged: bool = False
    iterations: int = 0
    iteration_budget: int = 0
    batch_seq: int = -1
    batch_occupancy: int = 0
    #: Submit-to-completion latency on the service clock (seconds).
    latency_s: float = float("nan")
    #: Time spent queued before the batch formed (seconds).
    queued_s: float = float("nan")
    #: MODCOD label echoed from the request (``None`` off the ACM path).
    modcod: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True for a decoded (possibly non-converged) frame."""
        return self.status == STATUS_OK
