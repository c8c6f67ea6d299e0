"""Closed-loop load generator for the decode service.

One process plays both roles: it releases requests on an open-loop
arrival schedule (a fixed offered rate, what an antenna front-end would
deliver) and drives the service pump in the gaps — a closed loop
between generator and service with no threads, so a run is fully
described by ``(code, config, offered_fps, duration, seed)``.

Arrivals are *backdated to the schedule*: if the pump spent 8 ms
decoding a batch, the three frames that "arrived" meanwhile are
submitted with their scheduled timestamps, so queueing delay and linger
accounting see true offered-load behaviour rather than the generator's
call times.  That is what makes the latency-vs-offered-load curves
honest near saturation.

Ground truth travels with every frame: the generator encodes random
codewords through a seeded AWGN channel and compares decoded payloads
bit-for-bit on completion, so a sweep reports correctness (frame/bit
errors) next to throughput — degradation should cost iterations, not
silent corruption.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

import numpy as np

from ..channel.awgn import AwgnChannel
from ..codes.construction import LdpcCode
from ..encode.encoder import IraEncoder
from ..obs.publish import SnapshotPublisher
from ..obs.registry import MetricsRegistry
from ..obs.trace import TraceRecorder
from .api import ServeConfig
from .engine import DecodeService
from .fabric import DecodeFabric, FabricConfig
from .report import ServiceReport

#: Generator sleep while batches are in flight and nothing else is due.
_BUSY_TICK_S = 0.0005


@dataclass(frozen=True)
class FramePool:
    """A cycle of pre-generated noisy frames with their true codewords."""

    llrs: np.ndarray  #: ``(pool, n)`` channel LLRs.
    codewords: np.ndarray  #: ``(pool, n)`` transmitted bits.
    ebn0_db: float

    def __len__(self) -> int:
        return self.llrs.shape[0]


def make_frame_pool(
    code: LdpcCode,
    *,
    pool_size: int = 64,
    ebn0_db: float = 2.0,
    seed: int = 2005,
    channel=None,
) -> FramePool:
    """Encode ``pool_size`` random codewords and pass them through AWGN.

    The generator cycles through the pool instead of synthesizing a
    fresh frame per arrival — frame generation must never become the
    bottleneck that caps the offered rate.

    ``channel`` overrides the default seeded AWGN channel with any
    prebuilt object whose ``llrs(bits)`` accepts a ``(frames, n)``
    batch (a :func:`repro.channel.build_channel` cell); when given,
    ``ebn0_db`` only labels the pool and the channel's own stream is
    consumed.
    """
    rng = np.random.default_rng(seed)
    encoder = IraEncoder(code)
    info = rng.integers(0, 2, size=(pool_size, code.k), dtype=np.int8)
    codewords = encoder.encode_batch(info)
    if channel is None:
        channel = AwgnChannel(ebn0_db, code.k / code.n, seed=seed + 1)
    llrs = channel.llrs(codewords)
    return FramePool(llrs=llrs, codewords=codewords, ebn0_db=ebn0_db)


@dataclass(frozen=True)
class LoadgenResult:
    """Outcome of one constant-rate run."""

    offered_fps: float
    duration_s: float
    report: ServiceReport
    snapshot: dict
    #: Completed frames whose decoded codeword differed from the truth.
    frame_errors: int
    #: Total wrong bits across completed frames.
    bit_errors: int
    #: Decoded-and-compared frame count (``report.completed``).
    checked: int

    def to_dict(self) -> dict:
        return {
            "offered_fps": self.offered_fps,
            "duration_s": self.duration_s,
            "frame_errors": self.frame_errors,
            "bit_errors": self.bit_errors,
            "checked": self.checked,
            "report": self.report.to_dict(),
        }


def run_loadgen(
    code: LdpcCode,
    config: Optional[ServeConfig] = None,
    *,
    offered_fps: float,
    duration_s: float,
    frame_pool: Optional[FramePool] = None,
    ebn0_db: float = 2.0,
    seed: int = 2005,
    registry: Optional[MetricsRegistry] = None,
    trace: Optional[TraceRecorder] = None,
    publisher: Optional[SnapshotPublisher] = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Optional[Callable[[float], None]] = None,
    fabric: Optional[FabricConfig] = None,
    clients: int = 0,
) -> LoadgenResult:
    """Offer ``offered_fps`` frames/s for ``duration_s`` and report.

    A fresh :class:`MetricsRegistry` is used per run (pass ``registry``
    to accumulate across runs instead); the returned snapshot therefore
    isolates exactly this run.  ``sleep`` defaults to ``time.sleep``
    when the clock is real and to busy-spinning otherwise.  With a
    ``publisher`` the run streams registry snapshots while it pumps
    (the publisher is re-attached to this run's registry, so delta
    records stay non-negative across sweep points).

    With a ``fabric`` config the run drives a multi-worker
    :class:`~repro.serve.fabric.DecodeFabric` instead of the in-process
    service; the serve knobs still come from ``config`` (``fabric``'s
    embedded serve config is replaced) and the returned snapshot is the
    cross-worker merge.  ``clients`` > 0 stamps arrivals with a
    rotating client identity so affinity dispatch gets exercised.
    """
    if offered_fps <= 0:
        raise ValueError("offered_fps must be positive")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    config = config if config is not None else ServeConfig()
    registry = registry if registry is not None else MetricsRegistry()
    if frame_pool is None:
        frame_pool = make_frame_pool(code, ebn0_db=ebn0_db, seed=seed)
    if sleep is None:
        sleep = time.sleep if clock is time.monotonic else (lambda s: None)

    total = max(1, int(offered_fps * duration_s))
    period = 1.0 / offered_fps
    frame_of: dict = {}  # request id -> pool index
    frame_errors = 0
    bit_errors = 0

    def check(results) -> None:
        nonlocal frame_errors, bit_errors
        for result in results:
            if not result.ok:
                continue
            truth = frame_pool.codewords[frame_of[result.request_id]]
            wrong = int(np.count_nonzero(result.bits != truth))
            if wrong:
                frame_errors += 1
                bit_errors += wrong

    service = (
        DecodeService(code, config, registry=registry, trace=trace,
                      clock=clock)
        if fabric is None else
        DecodeFabric(code, replace(fabric, serve=config),
                     registry=registry, trace=trace, clock=clock)
    )
    if publisher is not None:
        # The service quacks like a registry (merged snapshot()), so the
        # publisher streams the fabric's cross-worker view too.
        publisher.attach(service)
    start = clock()
    submitted = 0
    with service:
        while submitted < total:
            now = clock()
            if publisher is not None:
                publisher.publish(now)
            # Release every arrival the schedule says has happened,
            # stamped with its scheduled time (not the call time).
            while submitted < total:
                scheduled = start + submitted * period
                if scheduled > now:
                    break
                idx = submitted % len(frame_pool)
                rid = service.submit(
                    frame_pool.llrs[idx],
                    now=scheduled,
                    client=(
                        f"client{submitted % clients}" if clients else None
                    ),
                )
                frame_of[rid] = idx
                submitted += 1
            service.pump(now)
            check(service.poll())
            if submitted >= total:
                break
            next_arrival = start + submitted * period
            now = clock()
            due = service.next_due(now)
            # Work in flight (due now): poll again after a short tick
            # instead of spinning on a CPU the workers need.
            wake = next_arrival if due is None else min(
                next_arrival, max(due, now + _BUSY_TICK_S)
            )
            delay = wake - clock()
            if delay > 0:
                sleep(min(delay, period))
        service.flush()
        check(service.poll())
        wall = clock() - start
    if publisher is not None:
        publisher.publish(clock(), force=True)
    snapshot = service.merged_snapshot()
    report = ServiceReport.from_snapshot(
        code, snapshot, wall, max_batch=config.max_batch
    )
    return LoadgenResult(
        offered_fps=offered_fps,
        duration_s=duration_s,
        report=report,
        snapshot=snapshot,
        frame_errors=frame_errors,
        bit_errors=bit_errors,
        checked=report.completed,
    )


def sweep_offered_rates(
    code: LdpcCode,
    config: Optional[ServeConfig] = None,
    *,
    rates_fps: List[float],
    duration_s: float,
    ebn0_db: float = 2.0,
    seed: int = 2005,
    channel=None,
    trace: Optional[TraceRecorder] = None,
    publisher: Optional[SnapshotPublisher] = None,
    progress: Optional[Callable[[LoadgenResult], None]] = None,
    fabric: Optional[FabricConfig] = None,
    clients: int = 0,
) -> List[LoadgenResult]:
    """Run one loadgen pass per offered rate (shared frame pool).

    This is the latency-vs-offered-load experiment: sweep rates from
    well below to beyond saturation and watch p99 latency, shed
    iterations, and rejects take over in that order.  ``channel``
    overrides the pool's AWGN channel (see :func:`make_frame_pool`).
    """
    frame_pool = make_frame_pool(
        code, ebn0_db=ebn0_db, seed=seed, channel=channel
    )
    results = []
    for rate in rates_fps:
        result = run_loadgen(
            code,
            config,
            offered_fps=rate,
            duration_s=duration_s,
            frame_pool=frame_pool,
            seed=seed,
            trace=trace,
            publisher=publisher,
            fabric=fabric,
            clients=clients,
        )
        results.append(result)
        if progress is not None:
            progress(result)
    return results
