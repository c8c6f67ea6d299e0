"""Multi-MODCOD serving: the serve pump with one route per MODCOD.

ACM traffic mixes MODCODs frame by frame, while a batch is same-rate
by construction.  :class:`MultiModcodService` is the
:class:`~repro.serve.engine.DecodeService` pump with the MODCOD label
as its routing key: each MODCOD gets a route (its code, registered on
first use — the serve-plane analogue of
:class:`~repro.sim.pool.PersistentPool`'s configure-keyed reuse) with
its own bounded admission queue, and every frame joins the queue of its
MODCOD under one request-id space.

Batching therefore groups *by config automatically*: frames of the
same MODCOD micro-batch together, different MODCODs decode in separate
batches on the same executor — inline, or on one pool of
``config.workers`` processes, each of which builds a MODCOD's decoder
the first time it receives one of its batches.  Since the batched
decoders are bit-identical per frame regardless of batch composition,
the mixed plane's output matches dedicated per-MODCOD services bit for
bit (the acceptance bar the scenario bench enforces).

Every metric lands once in the plane's registry; each MODCOD also keeps
a view of its own frames, and :meth:`merged_snapshot` attaches those
per-MODCOD sub-views, so one :class:`~repro.serve.report.ServiceReport`
can break the mix down.
"""

from __future__ import annotations

import time
from functools import partial
from typing import List, Optional

import numpy as np

from ..codes.construction import LdpcCode
from ..obs.registry import MetricsRegistry
from ..obs.trace import TraceRecorder
from ..serve.api import ServeConfig
from ..serve.engine import DecodeService, Route
from .modcod import ModCod, build_modcod_code


class MultiModcodService(DecodeService):
    """Serve a per-frame MODCOD mix through one pump, routed by MODCOD.

    Parameters
    ----------
    config:
        The :class:`~repro.serve.api.ServeConfig` every MODCOD is
        served with (same batching/shedding/decoder knobs; only the
        code differs per MODCOD).  ``workers > 1`` decodes every MODCOD
        on one shared pool of that many processes.
    parallelism:
        Code scale for normal frames (see
        :func:`~repro.acm.modcod.build_modcod_code`).
    registry:
        Metrics sink for the whole plane (a private registry when
        omitted); every frame is counted in it once.
    clock:
        Shared service clock (tests inject a manual clock).
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        parallelism: int = 360,
        registry: Optional[MetricsRegistry] = None,
        trace: Optional[TraceRecorder] = None,
        clock=time.monotonic,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.parallelism = parallelism
        self._init_pump(
            self.config, {},
            registry=registry if registry is not None else MetricsRegistry(),
            trace=trace, clock=clock,
        )

    # ------------------------------------------------------------------
    def service_for(self, modcod: ModCod) -> LdpcCode:
        """Register a MODCOD's route on first use; returns its code.

        On the inline path this builds the MODCOD's decoder; pooled
        workers build it where its batches decode.
        """
        label = modcod.label
        route = self._routes.get(label)
        if route is None:
            recipe = partial(
                build_modcod_code, modcod, parallelism=self.parallelism
            )
            route = Route(recipe(), recipe, MetricsRegistry())
            self._add_route(label, route)
        return route.code

    @property
    def active_modcods(self) -> List[str]:
        """Labels of the MODCODs routed so far (submission order)."""
        return list(self._routes)

    def submit(
        self,
        llrs: np.ndarray,
        modcod: ModCod,
        *,
        deadline_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> int:
        """Admit one frame under its MODCOD; returns its request id.

        The frame must be sized for the MODCOD's code (``(n,)`` LLRs),
        so a mislabeled frame fails loudly at the door rather than
        decoding under the wrong graph.
        """
        self.service_for(modcod)
        return super().submit(
            llrs, deadline_s=deadline_s, now=now, modcod=modcod.label
        )

    # ------------------------------------------------------------------
    def merged_snapshot(self) -> dict:
        """The plane's metrics with per-MODCOD sub-views.

        Sub-views land under the snapshot's ``workers`` key (the
        :func:`~repro.obs.registry.merge_snapshots` convention); labels
        are MODCOD strings, so report worker-counting (which looks for
        ``worker*`` labels) is unaffected.
        """
        snapshot = self.registry.snapshot()
        snapshot["workers"] = {
            label: route.registry.snapshot()
            for label, route in self._routes.items()
        }
        return snapshot
