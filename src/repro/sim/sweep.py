"""Parameter sweeps: SNR curves, iteration curves, threshold search."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..codes.construction import LdpcCode
from .ber import BerResult, BerSimulator, DecoderLike


@dataclass
class SweepPoint:
    """One point of a sweep: the varied value and its measurement.

    ``telemetry`` is populated by :func:`parallel_snr_sweep` (engine
    throughput at that point) and ``None`` for the serial sweeps.
    """

    value: float
    result: BerResult
    telemetry: Optional[object] = None


def snr_sweep(
    code: LdpcCode,
    decoder: DecoderLike,
    ebn0_points_db: Sequence[float],
    max_frames: int = 100,
    max_iterations: int = 30,
    seed: int = 0,
    all_zero: bool = True,
    target_frame_errors: Optional[int] = None,
) -> List[SweepPoint]:
    """BER/FER versus Eb/N0 (the waterfall curve)."""
    sim = BerSimulator(code=code, decoder=decoder, all_zero=all_zero, seed=seed)
    points = []
    for ebn0 in ebn0_points_db:
        result = sim.run(
            ebn0,
            max_frames=max_frames,
            max_iterations=max_iterations,
            target_frame_errors=target_frame_errors,
        )
        points.append(SweepPoint(value=float(ebn0), result=result))
    return points


def parallel_snr_sweep(
    code: LdpcCode,
    ebn0_points_db: Sequence[float],
    max_frames: int = 256,
    max_iterations: int = 30,
    seed: int = 0,
    workers: Optional[int] = None,
    shard_frames: Optional[int] = None,
    target_frame_errors: Optional[int] = None,
    ci_halfwidth: Optional[float] = None,
    channel: Optional[dict] = None,
    registry=None,
    trace=None,
    **recipe,
) -> List[SweepPoint]:
    """Waterfall curve measured with the parallel Monte-Carlo engine.

    Each Eb/N0 point runs through :func:`repro.sim.parallel.parallel_ber`
    with a point-specific base seed derived from ``(seed, point index)``
    via ``SeedSequence``, so the whole sweep is reproducible for any
    worker count and each point's noise is independent.  Engine
    telemetry is attached to each :class:`SweepPoint`.  ``recipe`` is
    the decoder as :class:`~repro.decode.batch.DecoderSpec` keywords,
    forwarded to every point.  ``registry`` and
    ``trace`` are forwarded to every point's engine run (one shared
    recorder: each point contributes its frames' iteration records and a
    ``ber_result`` event).  ``channel`` is a
    :func:`repro.channel.build_channel` spec dict forwarded to every
    point, which is how fading / higher-order scenario cells sweep
    (``None`` keeps the exact legacy AWGN stream).
    """
    from .parallel import DEFAULT_SHARD_FRAMES, parallel_ber

    if shard_frames is None:
        shard_frames = DEFAULT_SHARD_FRAMES
    points = []
    for index, ebn0 in enumerate(ebn0_points_db):
        run = parallel_ber(
            code,
            float(ebn0),
            max_frames=max_frames,
            shard_frames=shard_frames,
            workers=workers,
            target_frame_errors=target_frame_errors,
            ci_halfwidth=ci_halfwidth,
            max_iterations=max_iterations,
            channel=channel,
            seed=np.random.SeedSequence(entropy=(seed, index)),
            registry=registry,
            trace=trace,
            **recipe,
        )
        points.append(
            SweepPoint(
                value=float(ebn0),
                result=run.result,
                telemetry=run.telemetry,
            )
        )
    return points


def iteration_sweep(
    code: LdpcCode,
    decoder: DecoderLike,
    ebn0_db: float,
    iteration_points: Sequence[int],
    max_frames: int = 100,
    seed: int = 0,
    all_zero: bool = True,
) -> List[SweepPoint]:
    """BER versus iteration budget at a fixed Eb/N0.

    The Fig. 2 experiment: run with ``early_stop`` disabled so every
    frame uses exactly the budgeted iterations — isolating the schedule's
    convergence speed.
    """
    sim = BerSimulator(code=code, decoder=decoder, all_zero=all_zero, seed=seed)
    points = []
    for iters in iteration_points:
        result = sim.run(
            ebn0_db,
            max_frames=max_frames,
            max_iterations=int(iters),
            early_stop=False,
        )
        points.append(SweepPoint(value=float(iters), result=result))
    return points


def iterations_to_reach_ber(
    points: Sequence[SweepPoint], target_ber: float
) -> Optional[int]:
    """Smallest swept iteration budget whose BER is at or below target."""
    for point in sorted(points, key=lambda p: p.value):
        if point.result.ber <= target_ber:
            return int(point.value)
    return None


def find_waterfall_ebn0(
    code: LdpcCode,
    decoder: DecoderLike,
    target_fer: float = 0.5,
    lo_db: float = 0.0,
    hi_db: float = 4.0,
    max_frames: int = 40,
    max_iterations: int = 30,
    seed: int = 0,
    resolution_db: float = 0.1,
) -> float:
    """Bisect the Eb/N0 at which the FER crosses ``target_fer``.

    A cheap threshold locator used by the Shannon-gap experiment; the
    FER-vs-SNR curve is steep for long LDPC codes, so the 50% crossing is
    a stable proxy for the waterfall position.
    """
    sim = BerSimulator(code=code, decoder=decoder, all_zero=True, seed=seed)

    def fer_at(ebn0: float) -> float:
        return sim.run(
            ebn0, max_frames=max_frames, max_iterations=max_iterations
        ).fer

    lo, hi = lo_db, hi_db
    if fer_at(hi) > target_fer:
        return hi
    if fer_at(lo) <= target_fer:
        return lo
    while hi - lo > resolution_db:
        mid = 0.5 * (lo + hi)
        if fer_at(mid) > target_fer:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
