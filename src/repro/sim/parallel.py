"""Parallel Monte-Carlo simulation engine: sharded multi-process BER runs.

Monte-Carlo BER/FER measurement dominates the cost of reproducing the
paper's communications-performance claims; this engine makes it scale:

* **sharding** — the frame budget is cut into fixed-size shards, each
  decoded as one batch by a worker process from a
  :class:`~concurrent.futures.ProcessPoolExecutor`;
* **deterministic seeding** — shard ``i`` draws its noise from the
  ``i``-th child of ``np.random.SeedSequence(base_seed)``, so the noise
  a shard sees depends only on ``(base_seed, shard_index)`` and the
  merged result is bit-reproducible for *any* worker count;
* **adaptive stopping** — shards are merged strictly in index order and
  the stopping rule (target frame-error count and/or Wilson-CI
  half-width on the FER) is evaluated after every merge, so the stopping
  decision is also independent of the worker count.  Workers may decode
  shards speculatively past the stopping point; those results are
  discarded, never merged;
* **telemetry** — frames/sec, decoded Mbit/s (comparable to the paper's
  Eq. 8 hardware throughput) and per-shard wall times come back in a
  :class:`SimTelemetry`.

``workers=1`` runs the identical shard loop serially in-process — the
serial paths are the special case, not a separate implementation.  On
platforms without the ``fork`` start method the engine falls back to the
serial loop with a warning (results are identical either way).
"""

from __future__ import annotations

import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..channel.awgn import AwgnChannel
from ..channel.factory import build_channel
from ..codes.construction import LdpcCode
from ..decode.batch import make_batch_decoder
from ..obs.iteration import IterationTraceRecorder
from ..obs.registry import MetricsRegistry, get_registry
from ..obs.trace import TraceRecorder
from .ber import BerResult, merge_ber_results
from .pool import PersistentPool, ensure_seed_sequence, resolve_workers
from .pool import fork_context as _fork_context
from .stats import wilson_interval

#: Default shard size: the measured sweet spot where the batched check
#: phase stays cache-resident while amortizing per-call overheads.
DEFAULT_SHARD_FRAMES = 32


@dataclass
class SimTelemetry:
    """Throughput telemetry of one engine run.

    ``info_mbps`` is directly comparable to the paper's Eq. 8 hardware
    throughput numbers (information bits decoded per wall-clock second).
    """

    workers: int
    frames: int
    info_bits_per_frame: int
    coded_bits_per_frame: int
    elapsed_s: float
    shard_wall_s: List[float] = field(default_factory=list)
    shards_merged: int = 0
    shards_discarded: int = 0

    @property
    def frames_per_sec(self) -> float:
        """Merged frames per wall-clock second."""
        if self.elapsed_s <= 0:
            return float("nan")
        return self.frames / self.elapsed_s

    @property
    def info_mbps(self) -> float:
        """Decoded information throughput in Mbit/s (Eq. 8 comparable)."""
        if self.elapsed_s <= 0:
            return float("nan")
        return self.frames * self.info_bits_per_frame / self.elapsed_s / 1e6

    @property
    def coded_mbps(self) -> float:
        """Decoded coded throughput in Mbit/s."""
        if self.elapsed_s <= 0:
            return float("nan")
        return self.frames * self.coded_bits_per_frame / self.elapsed_s / 1e6

    @property
    def parallel_efficiency(self) -> float:
        """Aggregate shard compute time over ``workers × wall`` time."""
        if self.elapsed_s <= 0 or self.workers <= 0:
            return float("nan")
        return sum(self.shard_wall_s) / (self.workers * self.elapsed_s)

    @classmethod
    def from_registry(
        cls,
        registry,
        *,
        workers: int,
        info_bits_per_frame: int,
        coded_bits_per_frame: int,
        shard_wall_s: Sequence[float] = (),
    ) -> "SimTelemetry":
        """Build telemetry from a run registry (or its snapshot).

        Reads the engine's canonical metric names: ``sim.frames`` /
        ``sim.shards.merged`` / ``sim.shards.discarded`` counters and the
        ``sim.parallel.wall`` timer.
        """
        snap = registry.snapshot() if hasattr(registry, "snapshot") else registry
        counters = snap.get("counters", {})
        timers = snap.get("timers", {})
        wall = timers.get("sim.parallel.wall", {})
        return cls(
            workers=workers,
            frames=int(counters.get("sim.frames", 0)),
            info_bits_per_frame=info_bits_per_frame,
            coded_bits_per_frame=coded_bits_per_frame,
            elapsed_s=wall.get("last_ns", 0) / 1e9,
            shard_wall_s=list(shard_wall_s),
            shards_merged=int(counters.get("sim.shards.merged", 0)),
            shards_discarded=int(counters.get("sim.shards.discarded", 0)),
        )


@dataclass
class ShardResult:
    """Counts from one decoded shard (picklable worker return value)."""

    shard: int
    frames: int
    bit_errors: int
    frame_errors: int
    total_iterations: int
    converged_frames: int
    wall_s: float
    #: Registry snapshot of the worker-local metrics for this shard.
    metrics: Optional[dict] = None
    #: Buffered ``decode_iteration`` events (shard-local frame indices).
    trace_events: Optional[list] = None


@dataclass
class ParallelBerRun:
    """Merged measurement plus the telemetry of producing it."""

    result: BerResult
    telemetry: SimTelemetry
    #: Merged metrics snapshot of the whole run (always populated).
    metrics: Optional[dict] = None


# ----------------------------------------------------------------------
# Worker-side machinery.  With the fork start method the initializer
# arguments are inherited for free; with spawn they are pickled once per
# worker — either way each worker builds its decoder exactly once.
_WORKER_STATE: dict = {}


def _build_decoder(code: LdpcCode, params: dict):
    """Construct the shard decoder from the engine's params dict."""
    return make_batch_decoder(
        code,
        schedule=params["schedule"],
        normalization=params["normalization"],
        segments=params["segments"],
        fmt=params.get("fmt"),
        channel_scale=params.get("channel_scale", 1.0),
        backend=params.get("backend"),
    )


def _init_worker(code: LdpcCode, params: dict) -> None:
    """Build the worker's decoder once.

    ``params`` holds the *decoder* configuration only (schedule,
    normalization, segments, format, channel scale) — per-run knobs like
    the Eb/N0 point or the iteration budget travel with each shard task,
    so one initialized worker (e.g. in a :class:`PersistentPool`) serves
    every point of a sweep.
    """
    _WORKER_STATE["code"] = code
    _WORKER_STATE["params"] = params
    _WORKER_STATE["decoder"] = _build_decoder(code, params)


def _decode_shard(
    code: LdpcCode,
    decoder,
    run_params: dict,
    shard: int,
    n_frames: int,
    seed_seq: np.random.SeedSequence,
) -> ShardResult:
    """Decode one shard of all-zero-codeword frames and count errors.

    Metrics are collected in a worker-local :class:`MetricsRegistry`
    whose snapshot travels back in the (picklable) :class:`ShardResult`;
    the parent merges the snapshots in shard order.
    """
    reg = MetricsRegistry()
    wall = reg.timer("sim.shard.wall")
    hook = (
        IterationTraceRecorder()
        if run_params.get("trace_iterations")
        else None
    )
    with wall:
        spec = run_params.get("channel")
        if spec is None:
            # Legacy path stays the literal AwgnChannel construction so
            # every committed seeded result is reproduced bit for bit.
            channel = AwgnChannel(
                ebn0_db=run_params["ebn0_db"],
                rate=float(code.profile.rate),
                seed=seed_seq,
            )
        else:
            channel = build_channel(
                ebn0_db=run_params["ebn0_db"],
                rate=float(code.profile.rate),
                seed=seed_seq,
                **spec,
            )
        llrs = channel.llrs_all_zero(code.n, size=n_frames)
        result = decoder.decode_batch(
            llrs,
            max_iterations=run_params["max_iterations"],
            early_stop=True,
            iteration_trace=hook,
        )
    errs = np.count_nonzero(result.bits[:, : code.k], axis=1)
    bit_errors = int(errs.sum())
    frame_errors = int((errs > 0).sum())
    total_iterations = int(result.iterations.sum())
    converged_frames = int(result.converged.sum())
    reg.counter("sim.frames").inc(n_frames)
    reg.counter("sim.bit_errors").inc(bit_errors)
    reg.counter("sim.frame_errors").inc(frame_errors)
    reg.counter("sim.iterations").inc(total_iterations)
    reg.counter("sim.converged_frames").inc(converged_frames)
    return ShardResult(
        shard=shard,
        frames=n_frames,
        bit_errors=bit_errors,
        frame_errors=frame_errors,
        total_iterations=total_iterations,
        converged_frames=converged_frames,
        wall_s=wall.last_s,
        metrics=reg.snapshot(),
        trace_events=hook.drain() if hook is not None else None,
    )


def _run_shard(task) -> ShardResult:
    """Pool entry point: decode one shard using the worker's decoder."""
    shard, n_frames, seed_seq, run_params = task
    return _decode_shard(
        _WORKER_STATE["code"],
        _WORKER_STATE["decoder"],
        run_params,
        shard,
        n_frames,
        seed_seq,
    )


def _should_stop(
    frames: int,
    frame_errors: int,
    target_frame_errors: Optional[int],
    ci_halfwidth: Optional[float],
) -> bool:
    """Adaptive stopping rule, evaluated on the merged in-order prefix."""
    if target_frame_errors is not None and frame_errors >= target_frame_errors:
        return True
    if ci_halfwidth is not None and frames > 0:
        lo, hi = wilson_interval(frame_errors, frames)
        if 0.5 * (hi - lo) <= ci_halfwidth:
            return True
    return False


def _shard_sizes(max_frames: int, shard_frames: int) -> List[int]:
    sizes = [shard_frames] * (max_frames // shard_frames)
    if max_frames % shard_frames:
        sizes.append(max_frames % shard_frames)
    return sizes


def _shard_to_result(shard: ShardResult, ebn0_db: float, k: int) -> BerResult:
    return BerResult(
        ebn0_db=ebn0_db,
        frames=shard.frames,
        bit_errors=shard.bit_errors,
        frame_errors=shard.frame_errors,
        total_bits=shard.frames * k,
        total_iterations=shard.total_iterations,
        converged_frames=shard.converged_frames,
    )


# ----------------------------------------------------------------------
def parallel_ber(
    code: LdpcCode,
    ebn0_db: float,
    *,
    max_frames: int = 1024,
    shard_frames: int = DEFAULT_SHARD_FRAMES,
    workers: Optional[int] = None,
    target_frame_errors: Optional[int] = None,
    ci_halfwidth: Optional[float] = None,
    max_iterations: int = 30,
    schedule: str = "zigzag",
    normalization: float = 0.75,
    segments: Optional[int] = None,
    fmt=None,
    channel_scale: float = 1.0,
    backend=None,
    seed=0,
    channel: Optional[dict] = None,
    registry: Optional[MetricsRegistry] = None,
    trace: Optional[TraceRecorder] = None,
    pool: Optional[PersistentPool] = None,
) -> ParallelBerRun:
    """Sharded, optionally multi-process BER measurement at one point.

    Parameters
    ----------
    max_frames:
        Upper bound on simulated frames (the full shard budget).
    shard_frames:
        Frames per shard; one shard is one batched decode in one task.
    workers:
        Process count; ``None`` uses the machine's CPU count, ``1``
        runs the identical shard loop serially in-process.
    target_frame_errors, ci_halfwidth:
        Adaptive stopping: stop dispatching once the merged in-order
        prefix has this many frame errors, or once the Wilson 95%
        interval on the FER has at most this half-width.  Either, both,
        or neither may be given.
    schedule:
        ``"zigzag"`` (default, fastest), ``"flooding"``, or the
        fixed-point paths ``"quantized-zigzag"`` / ``"quantized-minsum"``
        (paper Table 3 arithmetic; bit-identical to the single-frame
        golden models for every frame).
    fmt, channel_scale, backend:
        Fixed-point word format (6-bit messages by default), channel
        input conditioning, and the array backend name executing the
        decoder hot path (see :mod:`repro.decode.backend`) — all three
        forwarded to the quantized schedules only.  Results are
        bit-identical across backends.
    seed:
        Base seed; shard ``i`` uses child ``i`` of
        ``np.random.SeedSequence(seed)`` regardless of worker count.
    channel:
        Optional channel spec dict — keyword arguments for
        :func:`repro.channel.build_channel` minus ``ebn0_db`` /
        ``rate`` / ``seed`` (e.g. ``{"modulation": "8psk",
        "channel": "rayleigh"}``).  Each shard builds its channel from
        the spec with its own seed sequence, so the spec is what makes
        fading / higher-order cells picklable across worker processes.
        ``None`` keeps the literal legacy AWGN construction (existing
        seeded results stay bit-identical).
    registry:
        Metrics registry the merged run metrics are folded into; defaults
        to the process-wide registry.  The run itself always meters into
        a private, always-enabled registry (telemetry must work even when
        global metrics are off); the merge is skipped only if the target
        is disabled.
    trace:
        Trace recorder.  When given, every decoded frame's per-iteration
        convergence record is written (workers buffer events; the parent
        rewrites frame indices to global frame numbers and writes them in
        deterministic shard-merge order), followed by one ``ber_result``
        event.  Tracing does not change decoder outputs.
    pool:
        A :class:`~repro.sim.pool.PersistentPool` to run shards on.  The
        pool's worker count overrides ``workers``, and its processes
        (with their already-built decoders) are reused across calls that
        share the decoder configuration — a sweep over Eb/N0 points pays
        process spin-up once.  Results are bit-identical with or without
        a pool for any worker count.
    """
    if max_frames < 1:
        raise ValueError("need at least one frame")
    if shard_frames < 1:
        raise ValueError("shard_frames must be positive")
    workers = pool.workers if pool is not None else resolve_workers(workers)

    decoder_params = {
        "schedule": schedule,
        "normalization": float(normalization),
        "segments": segments,
        "fmt": fmt,
        "channel_scale": float(channel_scale),
        "backend": backend,
    }
    run_params = {
        "ebn0_db": float(ebn0_db),
        "max_iterations": int(max_iterations),
        "trace_iterations": trace is not None,
        "channel": dict(channel) if channel is not None else None,
    }
    # Validate the schedule/segments/format combination up front,
    # in-process.
    _build_decoder(code, decoder_params)
    if channel is not None:
        # Same for the channel spec: fail fast on bad axes here rather
        # than inside a worker process.
        build_channel(
            ebn0_db=float(ebn0_db), rate=float(code.profile.rate),
            seed=0, **channel,
        )
    sizes = _shard_sizes(max_frames, shard_frames)
    children = ensure_seed_sequence(seed).spawn(len(sizes))

    mp_context = None
    if pool is None and workers > 1:
        mp_context = _fork_context()
        if mp_context is None:
            warnings.warn(
                "fork start method unavailable on this platform; "
                "running the Monte-Carlo engine serially",
                RuntimeWarning,
                stacklevel=2,
            )
            workers = 1

    run_reg = MetricsRegistry()
    with run_reg.timer("sim.parallel.wall"):
        if workers == 1:
            merged, discarded = _serial_loop(
                code, decoder_params, run_params, sizes, children,
                target_frame_errors, ci_halfwidth,
            )
        else:
            if pool is not None:
                pool.configure(
                    _init_worker,
                    (code, decoder_params),
                    key=_pool_key(code, decoder_params),
                )
                executor = pool._require_executor()
                merged, discarded = _parallel_loop(
                    executor, run_params, sizes, children,
                    target_frame_errors, ci_halfwidth, workers,
                )
            else:
                with ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=mp_context,
                    initializer=_init_worker,
                    initargs=(code, decoder_params),
                ) as executor:
                    merged, discarded = _parallel_loop(
                        executor, run_params, sizes, children,
                        target_frame_errors, ci_halfwidth, workers,
                    )

    k = code.k
    result = merge_ber_results(
        [_shard_to_result(s, float(ebn0_db), k) for s in merged]
    )
    # Fold the worker-local registries in strict shard-merge order; the
    # merge is associative, so any grouping yields the same totals.
    for shard_result in merged:
        if shard_result.metrics is not None:
            run_reg.merge(shard_result.metrics)
    run_reg.counter("sim.shards.merged").inc(len(merged))
    run_reg.counter("sim.shards.discarded").inc(discarded)
    telemetry = SimTelemetry.from_registry(
        run_reg,
        workers=workers,
        info_bits_per_frame=k,
        coded_bits_per_frame=code.n,
        shard_wall_s=[s.wall_s for s in merged],
    )
    if trace is not None:
        _write_trace(trace, merged, result, telemetry)
    target = registry if registry is not None else get_registry()
    if target.enabled:
        target.merge(run_reg)
    return ParallelBerRun(
        result=result, telemetry=telemetry, metrics=run_reg.snapshot()
    )


def _write_trace(
    trace: TraceRecorder,
    merged: Sequence[ShardResult],
    result: BerResult,
    telemetry: SimTelemetry,
) -> None:
    """Write buffered shard trace events with globalized frame indices."""
    offset = 0
    for shard_result in merged:
        for event in shard_result.trace_events or ():
            event = dict(event)
            event["frame"] = int(event["frame"]) + offset
            event["shard"] = shard_result.shard
            trace.emit(event)
        offset += shard_result.frames
    trace.event(
        "ber_result",
        ebn0_db=result.ebn0_db,
        frames=result.frames,
        ber=result.ber,
        fer=result.fer,
        bit_errors=result.bit_errors,
        frame_errors=result.frame_errors,
        shards_merged=telemetry.shards_merged,
        shards_discarded=telemetry.shards_discarded,
        elapsed_s=telemetry.elapsed_s,
        frames_per_sec=telemetry.frames_per_sec,
    )


def _pool_key(code: LdpcCode, decoder_params: dict):
    """Configuration key for :class:`PersistentPool` reuse.

    Identity of the code object plus the (hashable) decoder knobs; the
    pool keeps ``initargs`` alive, so the ``id`` stays unambiguous.
    """
    return (
        "sim.parallel",
        id(code),
        decoder_params["schedule"],
        decoder_params["normalization"],
        decoder_params["segments"],
        id(decoder_params["fmt"]),
        decoder_params["channel_scale"],
        decoder_params["backend"],
    )


def _serial_loop(
    code: LdpcCode,
    decoder_params: dict,
    run_params: dict,
    sizes: Sequence[int],
    children: Sequence[np.random.SeedSequence],
    target_frame_errors: Optional[int],
    ci_halfwidth: Optional[float],
):
    """The ``workers=1`` special case: same shards, same order, no pool."""
    decoder = _build_decoder(code, decoder_params)
    merged: List[ShardResult] = []
    frames = frame_errors = 0
    for shard, (n_frames, seed_seq) in enumerate(zip(sizes, children)):
        result = _decode_shard(
            code, decoder, run_params, shard, n_frames, seed_seq
        )
        merged.append(result)
        frames += result.frames
        frame_errors += result.frame_errors
        if _should_stop(
            frames, frame_errors, target_frame_errors, ci_halfwidth
        ):
            break
    return merged, 0


def _parallel_loop(
    executor,
    run_params: dict,
    sizes: Sequence[int],
    children: Sequence[np.random.SeedSequence],
    target_frame_errors: Optional[int],
    ci_halfwidth: Optional[float],
    workers: int,
):
    """Dispatch shards to a process pool, merging strictly in order.

    Workers run ahead speculatively; once the in-order stopping rule
    fires, unmerged results are discarded so the merged prefix is the
    one the serial loop would have produced.  ``executor`` is either a
    run-scoped :class:`ProcessPoolExecutor` or a warm
    :class:`PersistentPool` executor — the caller owns its lifetime.
    """
    n_shards = len(sizes)
    merged: List[ShardResult] = []
    completed: Dict[int, ShardResult] = {}
    pending: Dict[object, int] = {}
    next_submit = 0
    next_merge = 0
    frames = frame_errors = 0
    stop = False
    while True:
        while (
            not stop
            and next_submit < n_shards
            and len(pending) < workers
        ):
            future = executor.submit(
                _run_shard,
                (
                    next_submit,
                    sizes[next_submit],
                    children[next_submit],
                    run_params,
                ),
            )
            pending[future] = next_submit
            next_submit += 1
        if not pending:
            break
        done, _ = wait(pending, return_when=FIRST_COMPLETED)
        for future in done:
            shard = pending.pop(future)
            completed[shard] = future.result()
        while not stop and next_merge in completed:
            result = completed.pop(next_merge)
            merged.append(result)
            next_merge += 1
            frames += result.frames
            frame_errors += result.frame_errors
            if _should_stop(
                frames, frame_errors,
                target_frame_errors, ci_halfwidth,
            ):
                stop = True
        if stop:
            for future in pending:
                future.cancel()
            pending = {
                f: s for f, s in pending.items() if not f.cancelled()
            }
            if not pending:
                # Speculative in-flight shards were either cancelled or
                # already done; completed-but-unmerged ones are counted
                # as discarded below.
                break
    discarded = len(completed)
    return merged, discarded
