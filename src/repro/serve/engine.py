"""The decode service: one serve pump over inline or pooled decoders.

:class:`DecodeService` is the repo's only serve loop.  It is a
single-threaded event pump over an injected clock:

* ``submit`` admits a frame into the bounded admission queue of its
  *route* — the code that decodes it: one route for a single-code
  service, one per MODCOD label on the mixed plane — or, under the
  hash dispatch policy, into a queue pinned to its client's worker
  lane.  Admission turns the frame into what the decoder reads: the
  fixed-point integers of a quantized schedule (``int8`` for the 6-bit
  format, quantized once, here), float64 LLRs otherwise.  A frame with
  a NaN or infinite LLR, or one that finds its queue full, is rejected
  with a typed reason (backpressure, never unbounded growth);
* ``pump`` is the event step: fold finished batches in, expire overdue
  frames, form every due micro-batch (fill-or-timeout, see
  :class:`~repro.serve.batcher.MicroBatcher`) and decode it;
* ``poll`` hands finished :class:`~repro.serve.api.DecodeResult`\\ s
  back in completion order.

Everything time-dependent takes the clock value from the pump caller
(or the injected ``clock``), so the service is deterministic under a
manual clock — the property the batcher/shedding tests lean on.

Executors: without worker lanes the pump decodes inline.  Otherwise
each :class:`Lane` is a :class:`~repro.sim.pool.PersistentPool` with an
in-flight window, picked per batch by the dispatch policy
(:mod:`repro.serve.dispatch`): a pooled service (``workers > 1``) is
one N-process lane, the distributed fabric
(:class:`~repro.serve.fabric.DecodeFabric`) is N one-process lanes.
Workers host decoders, not services: a batch goes out as ``(route,
frames, budgets)`` — the admitted frames stacked by the parent into one
``(frames, n)`` array, ``int8`` for the 6-bit format (n bytes a frame,
not the 8n of float64 LLRs) — and comes back as ``(bits, converged,
iterations)``; the parent records every metric.  Batches complete
strictly in batch-sequence order, so results and metrics are
deterministic for any lane count.

Pipelining: up to ``window`` batches stay in flight per lane, so batch
``k+1``'s formation and LLR prep overlap batch ``k``'s decode — the
software analogue of the paper's double-buffered I/O RAM, where the
core decodes one frame while the next streams in.  The pump never
waits for a worker: while every window is full, due batches stay
queued (where shedding and expiry still see them); ``flush`` waits.
The strict merge makes the overlap invisible in the results: bits,
statuses and order are identical to ``pipeline_depth=1`` for any depth.
One caveat is inherent: deadline-capped *per-frame* budgets use the
per-iteration cost EWMA, which updates at batch completion — a
timing-dependent quantity on any real clock regardless of depth.

Failures: a worker that dies (OOM-killed, segfaulted) fails its lane's
in-flight batches.  The pump respawns the lane (``pool.worker_restart``)
and redrives each batch (``fabric.chunks.redriven``) as the merge
cursor reaches it.  A batch that crashes its worker a fourth time is
poison: its frames complete ``failed`` (reason ``worker_crash``) and
the pump keeps serving.  A batch whose decode raises in the worker
fails at once (reason ``decode_error``, not redriven: it would raise
again).  So ``completed + rejected + expired + failed == submitted``
holds through any crash.

Degradation is layered (cheapest first): converged frames freeze inside
the batched decoder (free, always on); the iteration-budget controller
sheds the per-batch budget as the fullest admission queue fills (paper
§2.2's saved iterations as a live knob); per-request deadlines expire
queued frames before they waste decode time, and — on decoders with
``supports_frame_budgets`` — cap each frame's budget to what fits
before its deadline using a measured per-iteration cost estimate;
finally a full queue rejects at the door.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..codes.construction import LdpcCode
from ..decode.batch import DecoderSpec
from ..decode.zigzag import resolve_segments
from ..obs.registry import MetricsRegistry, get_registry
from ..obs.trace import TraceRecorder
from ..quantize.fixed_point import check_finite, quantize_llrs
from ..sim.pool import PersistentPool
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
from .dispatch import DispatchPolicy, make_dispatch
from .policy import IterationBudgetController
from .queue import BoundedRequestQueue

#: Batch-occupancy histogram buckets (powers of two up to 256 frames).
OCCUPANCY_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Latency histogram buckets in milliseconds.
LATENCY_BUCKETS_MS = (
    0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000,
)

#: EWMA weight of the newest per-iteration cost sample.
_ITER_COST_ALPHA = 0.3

#: Redrives a batch gets before its frames fail (it crashed that many
#: workers plus one: poison, not bad luck).
_MAX_REDRIVES = 3


def _finite_float64(llrs: np.ndarray) -> np.ndarray:
    """Admission of a float schedule: the LLRs as they came, if finite."""
    check_finite(llrs)
    return llrs


def _admission(spec: DecoderSpec) -> tuple:
    """``(admit, entry)`` for a decoder recipe, picked once.

    ``admit`` turns one float64 frame into what its queue holds and
    ``entry`` names the decoder method that takes a stacked batch of
    them: the decoder's own quantizer and ``decode_quantized_batch``
    for the quantized schedules, float64 and ``decode_batch`` for the
    float ones.  ``admit`` raises ``ValueError`` on a NaN or infinite
    LLR.
    """
    if not spec.quantized:
        return _finite_float64, "decode_batch"
    admit = partial(
        quantize_llrs, fmt=spec.fmt, channel_scale=spec.channel_scale
    )
    return admit, "decode_quantized_batch"


# ----------------------------------------------------------------------
# Worker side: each pool process holds one decoder per route.
_WORKER: dict = {}


def _init_worker(routes: dict, spec: DecoderSpec, entry: str) -> None:
    """Pool initializer: build ``spec``'s decoder for every route known
    when the worker starts (``routes`` is inherited through ``fork``);
    ``entry`` is the decoder method batches go to (see
    :func:`_admission`)."""
    _WORKER["spec"] = spec
    _WORKER["entry"] = entry
    _WORKER["decoders"] = {
        key: spec.build(route.code) for key, route in routes.items()
    }


def _decode_task(key, recipe, frames: np.ndarray, budgets) -> tuple:
    """Pool entry point: decode one micro-batch of route ``key``.

    ``frames`` is the batch as admission holds it, stacked by the
    parent into one ``(frames, n)`` array: a quantized schedule's
    fixed-point integers (``int8`` for the 6-bit format, decoded by
    ``decode_quantized_batch``), float64 LLRs for a float schedule.
    The worker neither stacks nor quantizes.  A route added after this
    worker started is built here on its first batch, from the route's
    picklable code ``recipe``.
    """
    decoders = _WORKER["decoders"]
    decoder = decoders.get(key)
    if decoder is None:
        decoder = decoders[key] = _WORKER["spec"].build(recipe())
    result = getattr(decoder, _WORKER["entry"])(
        frames, max_iterations=budgets, early_stop=True
    )
    return result.bits, result.converged, result.iterations


@dataclass
class Route:
    """One decode configuration: the code a route's frames belong to."""

    code: LdpcCode
    #: Picklable zero-argument callable rebuilding ``code`` in a worker
    #: that started before the route existed (``None`` for routes that
    #: exist before any worker starts).
    recipe: Optional[Callable[[], LdpcCode]] = None
    #: Per-route metrics view, recorded next to the pump's own metrics
    #: (the MODCOD plane's per-label breakdown); ``None`` = no view.
    registry: Optional[MetricsRegistry] = None
    #: Parent-side decoder, built only when batches decode inline.
    decoder: object = None


@dataclass
class Lane:
    """One worker lane: a pool, its in-flight window, its metrics view."""

    pool: PersistentPool
    #: Max batches in flight on this lane.
    window: int
    #: Where the decode-side metrics of this lane's batches land.
    registry: MetricsRegistry
    batches: int = 0  #: batches in flight
    frames: int = 0  #: frames in flight (the least-loaded input)


class DecodeService:
    """Streaming decode service over one LDPC code.

    Parameters
    ----------
    code:
        The code every submitted frame belongs to (batches are
        same-rate by construction).
    config:
        Batching/degradation/decoder knobs; see
        :class:`~repro.serve.api.ServeConfig`.
    registry:
        Metrics sink; defaults to the process-wide registry.
    trace:
        Optional JSONL trace recorder; one ``serve_batch`` event per
        decoded batch and one ``serve_drop`` event per dropped frame.
    clock:
        Monotonic-seconds callable; tests inject a manual clock.
    pool:
        Persistent worker pool for ``config.workers > 1``; created (and
        owned) by the service when not supplied.  A serial pool keeps
        the inline path.
    """

    def __init__(
        self,
        code: LdpcCode,
        config: Optional[ServeConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
        trace: Optional[TraceRecorder] = None,
        clock=time.monotonic,
        pool: Optional[PersistentPool] = None,
    ) -> None:
        self.code = code
        self.config = config if config is not None else ServeConfig()
        self._init_pump(
            self.config, {None: Route(code)},
            registry=registry if registry is not None else get_registry(),
            trace=trace, clock=clock, pool=pool,
        )
        #: The admission queue (the CLI's file mode paces on it).
        self.queue = self._queues[None, None]
        #: The pool behind the worker lane (``None`` when inline).
        self._pool = self._lanes[0].pool if self._lanes else None

    def _init_pump(
        self,
        serve: ServeConfig,
        routes: Dict[Optional[str], Route],
        *,
        registry: MetricsRegistry,
        trace: Optional[TraceRecorder],
        clock,
        lanes: Optional[List[Lane]] = None,
        pool: Optional[PersistentPool] = None,
        dispatch: Optional[DispatchPolicy] = None,
    ) -> None:
        """Set the pump up over ``routes`` and worker ``lanes`` (no
        lanes = inline decode).  Without explicit lanes a pooled config
        gets one lane over ``pool`` (created when not supplied).
        :meth:`close` shuts down every lane's pool but a supplied one."""
        if lanes is None:
            lanes = _pool_lanes(serve, pool, registry, trace)
        self._serve = serve
        self.registry = registry
        self.trace = trace
        self.clock = clock
        self.batcher = MicroBatcher(serve.max_batch, serve.max_linger_s)
        self.controller = IterationBudgetController(
            serve.max_iterations, serve.min_iterations, serve.shed_start
        )
        #: The decoder recipe alone: what workers build and pools key on.
        self._spec = spec = serve.decoder_spec
        #: Per-frame budgets need a decoder that takes them.
        self._frame_budgets_ok = spec.quantized
        #: What ``submit`` turns a frame into, and the decoder method
        #: a stacked batch of them goes to (see :func:`_admission`).
        self._admit, self._entry = _admission(spec)
        self._lanes = lanes
        self._owned_pools = [
            lane.pool for lane in lanes if lane.pool is not pool
        ]
        self.dispatch = dispatch or make_dispatch(
            "least-loaded", max(1, len(lanes))
        )
        #: (route key, pinned lane or None) -> admission queue.
        self._queues: Dict[tuple, BoundedRequestQueue] = {}
        self._routes: Dict[Optional[str], Route] = {}
        for key, route in routes.items():
            self._add_route(key, route)
        key = ("serve",) + tuple(
            (k, id(r.code)) for k, r in self._routes.items()
        ) + (spec,)
        for lane in lanes:
            lane.pool.configure(
                _init_worker, (self._routes, spec, self._entry), key=key
            )
        #: Max batches in flight per lane (1 on the inline path).
        self.pipeline_depth = lanes[0].window if lanes else 1
        registry.gauge("serve.pipeline.depth").set(self.pipeline_depth)
        self._next_id = 0
        self._batch_seq = 0
        self._next_merge_seq = 0
        #: In-flight batches: seq -> (future, requests, meta).
        self._pending: Dict[int, Tuple[object, List[DecodeRequest], dict]] = {}
        self._completed: List[DecodeResult] = []
        #: EWMA of seconds per batch iteration (deadline budgeting).
        self._iter_cost_s: Optional[float] = None
        #: External queue-pressure hint (see :meth:`set_load_hint`).
        self._load_hint = 0.0
        self._closed = False

    def _add_route(self, key: Optional[str], route: Route) -> None:
        """Register a route and its shared admission queue; on the
        inline path, build its decoder now.  A ``segments`` count the
        route's code cannot take raises here, before any worker builds
        a decoder."""
        if self._spec.segments is not None:
            resolve_segments(route.code, self._spec.segments)
        if not self._lanes:
            route.decoder = self._spec.build(route.code)
        self._routes[key] = route
        self._queues[key, None] = BoundedRequestQueue(
            self._serve.queue_capacity
        )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        llrs: np.ndarray,
        *,
        deadline_s: Optional[float] = None,
        now: Optional[float] = None,
        modcod: Optional[str] = None,
        client: Optional[str] = None,
    ) -> int:
        """Admit one frame of channel LLRs; returns its request id.

        The frame is held from here on as its decoder reads it (see
        the module docstring).  The result (decoded bits, or a typed
        rejection: :data:`~repro.serve.api.REASON_BAD_FRAME` for a NaN
        or infinite LLR, :data:`~repro.serve.api.REASON_QUEUE_FULL`)
        arrives via :meth:`poll` after a :meth:`pump` — a rejected
        request completes immediately.  ``deadline_s`` is an
        absolute service-clock deadline overriding the config default;
        ``now`` overrides the clock (loadgen backdates arrivals to the
        scheduled offered-rate instants, so queueing delay includes
        time the pump spent decoding).  ``modcod`` labels the frame for
        per-MODCOD accounting (``serve.modcod.<label>.*`` counters) and
        is echoed on the result; it selects the route when one is
        registered under that label.  ``client`` is the affinity key
        of the hash dispatch policy.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        with self.registry.timer("serve.stage.enqueue"):
            key = modcod if modcod in self._routes else None
            route = self._routes[key]
            llrs = np.asarray(llrs, dtype=np.float64)
            if llrs.shape != (route.code.n,):
                raise ValueError(f"expected shape ({route.code.n},) LLRs")
            try:
                frame = self._admit(llrs)
            except ValueError:  # a NaN or infinite LLR
                frame = None
            now = self.clock() if now is None else now
            request_id = self._next_id
            self._next_id += 1
            if deadline_s is None and self._serve.deadline_ms is not None:
                deadline_s = now + self._serve.deadline_ms / 1e3
            request = DecodeRequest(
                request_id=request_id,
                llrs=frame,
                arrival_s=now,
                deadline_s=deadline_s,
                client=client,
                modcod=modcod,
            )
            views = self._views(route)
            for reg in views:
                reg.counter("serve.requests.submitted").inc()
                if modcod is not None:
                    reg.counter(f"serve.modcod.{modcod}.submitted").inc()
            if frame is None:
                self._drop(
                    request, views, STATUS_REJECTED, REASON_BAD_FRAME, now
                )
                return request_id
            pin = self.dispatch.route(request)
            queue = self._queues.get((key, pin))
            if queue is None:
                queue = self._queues[key, pin] = BoundedRequestQueue(
                    self._serve.queue_capacity
                )
            if not queue.offer(request):
                self._drop(
                    request, views, STATUS_REJECTED, REASON_QUEUE_FULL, now
                )
                return request_id
            self.registry.gauge("serve.queue.depth").set(self._depth())
            return request_id

    # ------------------------------------------------------------------
    # Event pump
    # ------------------------------------------------------------------
    def pump(self, now: Optional[float] = None) -> int:
        """Run the service forward: collect, expire, batch, decode.
        Returns the number of batches dispatched."""
        now = self.clock() if now is None else now
        with self.registry.timer("serve.stage.pump"):
            self._heal()
            self._collect(block=False)
            self._expire(now)
            dispatched = self._dispatch_due(now, force=False)
            self._collect(block=False)
            self.registry.gauge("serve.pipeline.backlog").set(
                sum(
                    self.batcher.due_count(queue, now)
                    for queue in self._queues.values()
                )
            )
        return dispatched

    def next_due(self, now: Optional[float] = None) -> Optional[float]:
        """When the pump next has work (None = idle until a submit).

        With batches in flight the answer is ``now`` — the pump should
        keep collecting completions.
        """
        now = self.clock() if now is None else now
        if self._pending:
            return now
        dues = [
            due for due in (
                self.batcher.next_due(queue, now)
                for queue in self._queues.values()
            ) if due is not None
        ]
        return min(dues, default=None)

    def poll(self) -> List[DecodeResult]:
        """Drain and return results completed since the last poll."""
        out = self._completed
        self._completed = []
        return out

    def set_load_hint(self, fill: float) -> None:
        """Install an external queue-pressure signal in ``[0, 1]``.

        A front-end that queues work ahead of this service can forward
        its own fill; the iteration-budget controller sheds on the
        *maximum* of the admission queues' fill and the hint, so
        standalone behaviour is unchanged (the hint defaults to 0).
        """
        if not 0.0 <= fill:
            raise ValueError("load hint must be non-negative")
        self._load_hint = float(fill)
        self.registry.gauge("serve.load_hint").set(round(fill, 4))

    def flush(self, now: Optional[float] = None) -> None:
        """Decode everything queued (ignoring linger) and wait for it.

        The window bound holds while draining: with every window full
        the flush waits for the oldest batch, then places the rest.
        """
        now = self.clock() if now is None else now
        with self.registry.timer("serve.stage.pump"):
            while True:
                self._collect(block=False)
                self._expire(now)
                self._dispatch_due(now, force=True)
                if not self._depth():
                    break
                self._collect(block=True, limit=1)
            self._collect(block=True)

    def close(self) -> None:
        """Flush outstanding work, flush the trace sink, and release
        owned pools (idempotent) — no tail events are lost at shutdown."""
        if self._closed:
            return
        try:
            self.flush()
        finally:
            for pool in self._owned_pools:
                pool.shutdown()
            if self.trace is not None:
                self.trace.flush()
            self._closed = True

    def __enter__(self) -> "DecodeService":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def merged_snapshot(self) -> dict:
        """Every metric the service recorded, as one snapshot (the
        fabric and the MODCOD plane add per-worker / per-MODCOD views)."""
        return self.registry.snapshot()

    def snapshot(self) -> dict:
        """Alias for :meth:`merged_snapshot` — lets the service stand
        in for a registry anywhere only snapshots are read (the
        snapshot publisher, the ``/metrics`` HTTP server)."""
        return self.merged_snapshot()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _views(self, route: Route, lane: Optional[Lane] = None) -> tuple:
        """The registries a frame's metrics land in: its lane's view
        once it decodes on a lane (else the pump's registry), plus its
        route's view when the route keeps one."""
        base = self.registry if lane is None else lane.registry
        return (base,) if route.registry is None else (base, route.registry)

    def _depth(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def _drop(
        self,
        request: DecodeRequest,
        views: tuple,
        status: str,
        reason: str,
        now: float,
        error: Optional[str] = None,
    ) -> None:
        """The single drop path: count, trace and complete a frame that
        will not be decoded (rejected, expired or failed).  ``error``
        is the exception text of a batch whose decode raised."""
        for reg in views:
            reg.counter(f"serve.requests.{status}").inc()
            if request.modcod is not None:
                reg.counter(f"serve.modcod.{request.modcod}.dropped").inc()
        self._completed.append(
            DecodeResult(
                request_id=request.request_id,
                status=status,
                reason=reason,
                latency_s=now - request.arrival_s,
                modcod=request.modcod,
            )
        )
        if self.trace is not None:
            extra = {} if error is None else {"error": error}
            self.trace.event(
                "serve_drop",
                request=request.request_id,
                status=status,
                reason=reason,
                waited_s=round(now - request.arrival_s, 6),
                **extra,
            )

    def _expire(self, now: float) -> None:
        with self.registry.timer("serve.stage.expire"):
            for (key, _pin), queue in self._queues.items():
                views = self._views(self._routes[key])
                for request in queue.expire(now):
                    self._drop(
                        request, views, STATUS_EXPIRED, REASON_DEADLINE, now
                    )
            self.registry.gauge("serve.queue.depth").set(self._depth())

    def _heal(self) -> None:
        """Respawn lanes whose worker died idle (a lane with batches in
        flight heals on the collect path, by respawn and redrive)."""
        for lane in self._lanes:
            if lane.batches == 0 and lane.pool.broken:
                lane.pool.respawn()

    def _free_lane(self, pin: Optional[int]) -> Optional[int]:
        """The lane for a batch from a queue pinned to ``pin`` (any
        lane when ``None``), or ``None`` while no such lane has room."""
        lanes = self._lanes
        if pin is not None:
            return pin if lanes[pin].batches < lanes[pin].window else None
        eligible = [
            i for i, lane in enumerate(lanes) if lane.batches < lane.window
        ]
        if not eligible:
            return None
        return self.dispatch.select([lane.frames for lane in lanes], eligible)

    def _dispatch_due(self, now: float, *, force: bool) -> int:
        """Form and decode every due batch (``force`` ignores the
        linger: the flush path).  On lanes a batch waits queued while
        no lane it may use has window room."""
        dispatched = 0
        for (key, pin), queue in self._queues.items():
            while len(queue) and (force or self.batcher.due(queue, now)):
                if not self._lanes:
                    self._decode_inline(key, queue, now)
                    now = self.clock()
                    self._expire(now)
                else:
                    index = self._free_lane(pin)
                    if index is None:
                        break
                    self._send(key, queue, index, now)
                dispatched += 1
        return dispatched

    def _frame_budget_vector(
        self,
        requests: List[DecodeRequest],
        batch_budget: int,
        now: float,
    ):
        """Per-frame budgets: the batch budget, capped per deadline.

        A frame whose deadline leaves room for fewer iterations than
        the batch budget gets only what fits, using the EWMA of the
        measured per-iteration batch cost (no estimate yet → no cap).
        Frames without deadlines always get the full batch budget, so
        deadline-free serving is bit-identical to the offline decoder.
        """
        if not self._frame_budgets_ok:
            return batch_budget, 0
        has_deadline = any(r.deadline_s is not None for r in requests)
        if not has_deadline or not self._iter_cost_s:
            return batch_budget, 0
        budgets = np.full(len(requests), batch_budget, dtype=np.int64)
        capped = 0
        for i, request in enumerate(requests):
            if request.deadline_s is None:
                continue
            affordable = int(
                (request.deadline_s - now) / self._iter_cost_s
            )
            if affordable < batch_budget:
                budgets[i] = max(1, affordable)
                capped += 1
        if not capped:
            return batch_budget, 0
        return budgets, capped

    def _form_batch(self, queue: BoundedRequestQueue, now: float):
        """Take one batch off ``queue`` and prep it for decode."""
        with self.registry.timer("serve.stage.batch_form"):
            fill = max(
                max(q.fill for q in self._queues.values()), self._load_hint
            )
            batch_budget = self.controller.budget(fill)
            requests = self.batcher.take(queue)
            self.registry.gauge("serve.queue.depth").set(self._depth())
        with self.registry.timer("serve.stage.llr_prep"):
            budgets, deadline_capped = self._frame_budget_vector(
                requests, batch_budget, now
            )
            llrs = np.stack([r.llrs for r in requests])
        seq = self._batch_seq
        self._batch_seq += 1
        meta = {
            "formed_s": now,
            "budget": batch_budget,
            "fill": fill,
            "deadline_capped": deadline_capped,
        }
        return seq, requests, llrs, budgets, meta

    def _decode_inline(
        self, key: Optional[str], queue: BoundedRequestQueue, now: float
    ) -> None:
        seq, requests, llrs, budgets, meta = self._form_batch(queue, now)
        route = self._routes[key]
        with self.registry.timer("serve.stage.decode") as timer:
            result = getattr(route.decoder, self._entry)(
                llrs, max_iterations=budgets, early_stop=True
            )
        self._next_merge_seq = seq + 1
        self._complete(
            seq, self._views(route), requests, meta,
            result.bits, result.converged, result.iterations,
            decode_s=timer.last_s,
        )

    def _send(
        self,
        key: Optional[str],
        queue: BoundedRequestQueue,
        index: int,
        now: float,
    ) -> None:
        """Ship one batch to lane ``index``; the decode stage's busy
        time is recorded at collect."""
        seq, requests, llrs, budgets, meta = self._form_batch(queue, now)
        lane = self._lanes[index]
        meta.update(lane=index, route=key)
        meta["task"] = (key, self._routes[key].recipe, llrs, budgets)
        future = self._submit_task(lane, meta["task"])
        self._pending[seq] = (future, requests, meta)
        lane.batches += 1
        lane.frames += len(requests)
        self.registry.gauge("serve.pipeline.inflight").set(len(self._pending))

    def _submit_task(self, lane: Lane, task: tuple):
        """Send one batch ``task`` to ``lane``'s pool; returns the
        future.  Submission (argument pickling into the worker pipe) is
        the dispatch stage, and every send, redrives included, counts
        its frames and their bytes (``serve.dispatch.*``)."""
        _key, _recipe, frames, _budgets = task
        with self.registry.timer("serve.stage.dispatch"):
            future = lane.pool.submit(_decode_task, *task)
        self.registry.counter("serve.dispatch.frames").inc(len(frames))
        self.registry.counter("serve.dispatch.llr_bytes").inc(frames.nbytes)
        return future

    def _collect(self, *, block: bool, limit: Optional[int] = None) -> None:
        """Fold finished batches in, strictly in sequence order.

        ``limit`` folds at most that many batches (the flush waits for
        one slot at a time).  A batch whose worker died is redriven, or
        failed once it has used up its redrives; a batch whose task
        raised fails at once (a redrive would raise again).  The
        blocking wait sits *outside* the ``collect`` stage span: waiting
        for a worker is pipeline stall, not collect work.
        """
        folded = 0
        while self._next_merge_seq in self._pending:
            if limit is not None and folded >= limit:
                return
            seq = self._next_merge_seq
            future, requests, meta = self._pending[seq]
            if not block and not future.done():
                return
            reason = error = None
            try:
                outcome = future.result()
            except BrokenExecutor:
                if self._redrive(seq):
                    continue
                reason = REASON_WORKER_CRASH
            except Exception as exc:  # the task raised: fail its batch
                reason = REASON_DECODE_ERROR
                error = f"{type(exc).__name__}: {exc}"
            lane = self._lanes[meta["lane"]]
            views = self._views(self._routes[meta["route"]], lane)
            with self.registry.timer("serve.stage.collect"):
                del self._pending[seq]
                self._next_merge_seq = seq + 1
                lane.batches -= 1
                lane.frames -= len(requests)
                self.registry.gauge("serve.pipeline.inflight").set(
                    len(self._pending)
                )
            folded += 1
            if reason is not None:
                now = self.clock()
                for request in requests:
                    self._drop(
                        request, views, STATUS_FAILED, reason, now, error
                    )
                continue
            # Service time on a lane is submission-to-merge (includes
            # waiting in the lane), on this clock.  The same span is the
            # decode stage's *busy* time: with several batches in flight
            # the per-stage busy sums may exceed the pump wall — that
            # excess is exactly the measured overlap (repro.obs.profile).
            decode_s = self.clock() - meta["formed_s"]
            self.registry.timer("serve.stage.decode").record_ns(
                max(0, int(decode_s * 1e9))
            )
            self._complete(seq, views, requests, meta, *outcome, decode_s)

    def _redrive(self, seq: int) -> bool:
        """Respawn the dead lane of batch ``seq`` and resubmit the batch
        to it; ``False`` once the batch has used up its redrives.

        The batch's metrics commit only with its results, so a redriven
        batch is counted once, as if the crash never happened — only
        latency shows the scar.
        """
        _future, requests, meta = self._pending[seq]
        lane = self._lanes[meta["lane"]]
        # One death fails every in-flight batch of the lane; respawn
        # once and redrive each as the merge cursor reaches it.
        if lane.pool.broken:
            lane.pool.respawn()
        meta["redrives"] = meta.get("redrives", 0) + 1
        if meta["redrives"] > _MAX_REDRIVES:
            return False
        self.registry.counter("fabric.chunks.redriven").inc()
        if self.trace is not None:
            self.trace.event(
                "serve_redrive",
                seq=seq,
                lane=meta["lane"],
                occupancy=len(requests),
            )
        future = self._submit_task(lane, meta["task"])
        self._pending[seq] = (future, requests, meta)
        return True

    def _complete(
        self,
        seq: int,
        views: tuple,
        requests: List[DecodeRequest],
        meta: dict,
        bits: np.ndarray,
        converged: np.ndarray,
        iterations: np.ndarray,
        decode_s: float,
    ) -> None:
        """Record one decoded batch in ``views`` and complete its frames."""
        with self.registry.timer("serve.stage.complete"):
            done = self.clock()
            occupancy = len(requests)
            total_iters = int(iterations.sum())
            max_iters = int(iterations.max()) if occupancy else 0
            if max_iters > 0 and decode_s > 0:
                sample = decode_s / max_iters
                if self._iter_cost_s is None:
                    self._iter_cost_s = sample
                else:
                    self._iter_cost_s += _ITER_COST_ALPHA * (
                        sample - self._iter_cost_s
                    )
            budget = meta["budget"]
            shed = (self._serve.max_iterations - budget) * occupancy
            waits = [meta["formed_s"] - r.arrival_s for r in requests]
            latencies = [done - r.arrival_s for r in requests]
            for reg in views:
                reg.counter("serve.batches").inc()
                reg.counter("serve.requests.completed").inc(occupancy)
                reg.counter("serve.iterations.executed").inc(total_iters)
                if shed:
                    reg.counter("serve.iterations.shed").inc(shed)
                reg.gauge("serve.batch.budget").set(budget)
                reg.histogram(
                    "serve.batch.occupancy", OCCUPANCY_BUCKETS
                ).observe(occupancy)
                reg.timer("serve.batch.decode").record_ns(
                    max(0, int(decode_s * 1e9))
                )
                latency_h = reg.histogram(
                    "serve.request.latency_ms", LATENCY_BUCKETS_MS
                )
                queue_h = reg.histogram(
                    "serve.request.queue_ms", LATENCY_BUCKETS_MS
                )
                ttfb = reg.timer("serve.request.ttfb")
                for request, wait, latency in zip(requests, waits, latencies):
                    latency_h.observe(latency * 1e3)
                    queue_h.observe(wait * 1e3)
                    ttfb.record_ns(int(wait * 1e9))
                    if request.modcod is not None:
                        reg.counter(
                            f"serve.modcod.{request.modcod}.completed"
                        ).inc()
            for i, request in enumerate(requests):
                self._completed.append(
                    DecodeResult(
                        request_id=request.request_id,
                        status=STATUS_OK,
                        bits=bits[i],
                        converged=bool(converged[i]),
                        iterations=int(iterations[i]),
                        iteration_budget=budget,
                        batch_seq=seq,
                        batch_occupancy=occupancy,
                        latency_s=latencies[i],
                        queued_s=waits[i],
                        modcod=request.modcod,
                    )
                )
            if self.trace is not None:
                self.trace.event(
                    "serve_batch",
                    seq=seq,
                    occupancy=occupancy,
                    budget=budget,
                    fill=round(meta["fill"], 4),
                    deadline_capped=meta["deadline_capped"],
                    converged=int(np.asarray(converged).sum()),
                    iterations=total_iters,
                    decode_s=round(decode_s, 6),
                )


def _pool_lanes(
    config: ServeConfig,
    pool: Optional[PersistentPool],
    registry: MetricsRegistry,
    trace: Optional[TraceRecorder],
) -> List[Lane]:
    """The worker lane of a pooled service: ``pool`` (created when
    ``workers > 1`` or ``pipeline_depth > 1``) unless it runs serially.

    ``pipeline_depth > 1`` with a single worker still wants a real
    child process — otherwise there is nothing to overlap with.  The
    window defaults to ``2 * workers``.
    """
    depth = config.pipeline_depth
    if pool is None and (config.workers > 1 or (depth or 1) > 1):
        pool = PersistentPool(
            config.workers,
            label="serve engine",
            dedicated=config.workers == 1,
            registry=registry,
            trace=trace,
        )
    if pool is None or pool.serial:
        return []
    window = depth if depth is not None else 2 * config.workers
    return [Lane(pool, window, registry)]
