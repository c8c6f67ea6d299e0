"""The distributed decode fabric: one front door, N decode workers.

:class:`DecodeFabric` is the serve pump of
:class:`~repro.serve.engine.DecodeService` configured as N one-process
worker lanes — same ``submit → pump → poll → flush`` API, same typed
results, same metric names, deterministic accounting.  The layout
mirrors the paper's hardware decomposition — one admission stage
feeding parallel functional units — lifted to processes:

* the **pump** (this process) owns admission: one bounded queue, the
  fill-or-timeout micro-batcher, deadline expiry while queued, and
  rejection at the door;
* each **worker** is a dedicated child process (a one-worker
  :class:`~repro.sim.pool.PersistentPool`) holding the same decoder as
  every other worker;
* a ready micro-batch ("chunk") travels to the worker with the fewest
  frames in flight among those with window room (lowest index on
  ties), is decoded there, and comes back as bits.  The pump records
  the chunk's decode-side metrics in that worker's view, so
  :meth:`DecodeFabric.merged_snapshot` has a ``fabric`` admission view
  plus one ``worker<i>`` view per worker.

Failure semantics (the pump's, see :mod:`repro.serve.engine`): a
worker that dies mid-chunk fails that chunk's future; the pump respawns
the worker (``pool.worker_restart``) and redrives the chunk to it
(``fabric.chunks.redriven``).  Metrics commit only with results, so
``completed + rejected + expired + failed == submitted`` holds through
crashes; a chunk that crashes its worker a fourth time fails its own
frames and nothing else.

Determinism: chunks complete in dispatch-sequence order, the worker
choice is a pure function of the request schedule, and each chunk
decodes as one batch with the composition the pump formed — so with
shedding neutral the decoded bits are identical to the single-service
path for any worker count.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Optional

from ..codes.construction import LdpcCode
from ..obs.registry import MetricsRegistry, get_registry, merge_snapshots
from ..obs.trace import TraceRecorder
from ..sim.pool import PersistentPool
from .api import ServeConfig
from .engine import DecodeService, Lane, Route, lane_window
from .report import ServiceReport


@dataclass
class FabricConfig:
    """Shape of the fabric: its worker count and its serve config.

    All batching/degradation/decoder knobs stay in the embedded
    :class:`~repro.serve.api.ServeConfig`.  Its ``pipeline_depth``
    bounds the chunks in flight per worker as it bounds a pooled
    lane's batches (unset: 2 — one decoding, one queued, enough to hide
    the round-trip without letting any worker hoard the backlog); its
    ``workers`` field is not used here — the fabric's processes are its
    ``workers`` one-process lanes.
    """

    workers: int = 2
    serve: ServeConfig = field(default_factory=ServeConfig)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be positive")


class DecodeFabric(DecodeService):
    """The serve pump over N one-process worker lanes.

    Parameters
    ----------
    code:
        The code every submitted frame belongs to.
    config:
        Fabric shape; see :class:`FabricConfig`.
    registry:
        The fabric-side metrics sink (admission, redrives, restarts).
        :meth:`merged_snapshot` adds the per-worker views on top.
    trace:
        Optional trace recorder; ``serve_batch`` / ``serve_redrive`` /
        ``pool_worker_restart`` events plus the usual ``serve_drop``\\ s.
    clock:
        Monotonic-seconds callable; tests inject a manual clock.
    """

    def __init__(
        self,
        code: LdpcCode,
        config: Optional[FabricConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
        trace: Optional[TraceRecorder] = None,
        clock=time.monotonic,
    ) -> None:
        self.code = code
        self.config = config if config is not None else FabricConfig()
        serve = self.config.serve
        registry = registry if registry is not None else get_registry()
        pools = [
            PersistentPool(
                1,
                label=f"fabric worker {index}",
                dedicated=True,
                registry=registry,
                trace=trace,
            )
            for index in range(self.config.workers)
        ]
        #: One registry per worker: the ``worker<i>`` views.
        self._worker_registries = [MetricsRegistry() for _ in pools]
        lanes = [
            Lane(pool, lane_window(serve, 1), reg)
            for pool, reg in zip(pools, self._worker_registries)
            if not pool.serial
        ]
        self._init_pump(
            serve, {None: Route(code)},
            registry=registry, trace=trace, clock=clock, lanes=lanes,
        )
        # Fork the workers now (each builds its decoder), so the first
        # chunk does not pay for it and every worker is a chaos target.
        for future in [lane.pool.submit(os.getpid) for lane in lanes]:
            future.result()

    @property
    def serial(self) -> bool:
        """True on no-``fork`` platforms: the pump decodes inline
        (degraded but functionally identical)."""
        return not self._lanes

    # ------------------------------------------------------------------
    # Chaos
    # ------------------------------------------------------------------
    def kill_worker(self, index: int) -> int:
        """SIGKILL worker ``index``'s process (chaos testing).

        Returns the pid that was killed.  The pump respawns the worker
        and redrives whatever it was holding.
        """
        if self.serial:
            raise RuntimeError(
                "serial fabric fallback has no worker processes to kill"
            )
        pool = self._lanes[index].pool
        if not pool.pids:  # respawned, not forked yet
            pool.submit(os.getpid).result()
        pid = pool.pids[0]
        os.kill(pid, signal.SIGKILL)
        return pid

    @property
    def restarts(self) -> int:
        """Total worker restarts across the fabric."""
        return sum(lane.pool.restarts for lane in self._lanes)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def merged_snapshot(self) -> dict:
        """One cross-worker snapshot: fabric admission metrics plus
        every worker's decode-side metrics, with per-worker sub-views
        under ``"workers"``.  Deterministic for a given set of completed
        chunks, regardless of completion interleaving."""
        parts = {"fabric": self.registry.snapshot()}
        for index, reg in enumerate(self._worker_registries):
            parts[f"worker{index}"] = reg.snapshot()
        return merge_snapshots(parts)

    def report(self, wall_s: float) -> ServiceReport:
        """Cross-worker :class:`ServiceReport` over ``wall_s`` seconds."""
        return ServiceReport.from_snapshot(
            self.code,
            self.merged_snapshot(),
            wall_s,
            max_batch=self.config.serve.max_batch,
            workers=self.config.workers,
        )
