"""Service report: measured serving throughput vs the paper's Eq. 7/8.

The hardware model in :mod:`repro.hw.throughput` predicts what the
synthesized core sustains at 270 MHz for a given iteration count.  The
serve layer measures what this software service actually sustained —
frames/s, info bit/s, latency percentiles, batching efficiency — from
the same metrics the engine records while running.  Putting both in one
:class:`ServiceReport` answers the question every serving experiment
ends with: *how far is the software path from the silicon it models,
and how much of the gap did batching close?*

The comparison is evaluated at the **measured mean iteration count**,
not the nominal budget: under load shedding the service runs fewer
iterations, and Eq. 8 says the hardware would speed up the same way, so
holding the model at 30 iterations would flatter the software.

A second model column keeps the comparison honest for the *pipelined*
pump (``ServeConfig.pipeline_depth > 1``): the frame-pipelined hardware
model (:class:`~repro.hw.pipeline.FramePipelineModel`) streams frames
at its bottleneck stage's pace, and its fill latency bounds how much
of the measured latency is pipeline structure rather than queueing —
``model_pipeline_frames_per_s`` / ``model_pipeline_fill_ms`` put those
numbers next to the sequential Eq. 8 prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..codes.construction import LdpcCode
from ..hw.pipeline import FramePipelineModel
from ..hw.throughput import ThroughputModel


def snapshot_percentile(hist: dict, q: float) -> float:
    """Estimate the ``q``-th percentile from a histogram snapshot dict.

    Uses linear interpolation inside the bucket containing the target
    rank (the standard Prometheus-style estimate); the overflow bucket
    reports its lower bound.  NaN for an empty histogram.
    """
    count = hist.get("count", 0)
    if count <= 0:
        return float("nan")
    bounds = [float(b) for b in hist["bounds"]]
    counts = hist["counts"]
    target = q / 100.0 * count
    seen = 0
    for i, c in enumerate(counts):
        if c == 0:
            continue
        if seen + c >= target:
            if i >= len(bounds):  # overflow bucket
                return bounds[-1]
            lo = bounds[i - 1] if i > 0 else 0.0
            hi = bounds[i]
            return lo + (hi - lo) * (target - seen) / c
        seen += c
    return bounds[-1]


@dataclass(frozen=True)
class ServiceReport:
    """Measured service performance next to the Eq. 7/8 hardware model."""

    rate: str
    wall_s: float
    # -- request accounting -------------------------------------------
    submitted: int
    completed: int
    rejected: int
    expired: int
    #: Dispatched frames whose batch kept crashing its workers.
    failed: int
    # -- batching ------------------------------------------------------
    batches: int
    mean_occupancy: float
    max_batch: int
    # -- iterations ----------------------------------------------------
    iterations_executed: int
    iterations_shed: int
    mean_iterations: float
    # -- latency (milliseconds) ---------------------------------------
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    queue_p50_ms: float
    # -- throughput ----------------------------------------------------
    frames_per_s: float
    info_bps: float
    coded_bps: float
    # -- hardware model at the measured mean iteration count ----------
    model_frames_per_s: float
    model_info_bps: float
    hardware_fraction: float
    # -- pipeline profile ---------------------------------------------
    #: Per-stage ``{total_s, count, mean_us, of_pump}`` rows from the
    #: ``serve.stage.*`` spans (see :mod:`repro.obs.profile`); the
    #: in-pump stages plus ``other`` sum to 100% of pump time.  ``None``
    #: when the snapshot carries no stage spans.
    stages: Optional[dict] = None
    #: Decode workers behind the numbers (1 = single service; the
    #: distributed fabric reports its worker count so merged reports
    #: are self-describing).
    workers: int = 1
    # -- pipeline terms (the frame-pipelined hardware model) ----------
    #: Resolved ``ServeConfig.pipeline_depth`` of the measured service
    #: (from the ``serve.pipeline.depth`` gauge; 1 when absent).
    pipeline_depth: int = 1
    #: Bottleneck-stage frames/s of the frame-pipelined hardware model
    #: (:class:`~repro.hw.pipeline.FramePipelineModel`, one decode
    #: core) at the measured mean iteration count — the ceiling a
    #: perfectly overlapped deframe/decode/BCH pipeline streams at,
    #: vs ``model_frames_per_s``'s sequential Eq. 8.
    model_pipeline_frames_per_s: float = float("nan")
    #: Predicted latency of one frame through that pipeline including
    #: fill (milliseconds) — the model-side floor under the measured
    #: latency percentiles at depth > 1.
    model_pipeline_fill_ms: float = float("nan")
    #: Per-MODCOD request accounting on the ACM path: ``{label:
    #: {"submitted": n, "completed": n, "dropped": n}}`` from the
    #: ``serve.modcod.<label>.*`` counters (labels must not contain
    #: ``.``).  ``None`` when no MODCOD-labeled traffic was served.
    modcods: Optional[dict] = None

    @classmethod
    def from_snapshot(
        cls,
        code: LdpcCode,
        snapshot: dict,
        wall_s: float,
        *,
        max_batch: int = 0,
        model: Optional[ThroughputModel] = None,
        workers: Optional[int] = None,
    ) -> "ServiceReport":
        """Build the report from a :meth:`MetricsRegistry.snapshot`.

        ``wall_s`` is the measured serving interval (the registry has no
        notion of elapsed time); ``model`` defaults to the paper's
        270 MHz / P=360 configuration for the code's profile.
        ``workers`` defaults to what the snapshot itself says: a merged
        fabric snapshot carries per-worker sub-views under ``workers``
        (see :func:`~repro.obs.registry.merge_snapshots`), whose
        ``worker*`` labels are counted; otherwise 1.
        """
        from ..obs.profile import stage_breakdown

        if workers is None:
            labeled = snapshot.get("workers", {})
            workers = sum(
                1 for label in labeled if label.startswith("worker")
            ) or 1
        counters = snapshot.get("counters", {})
        histograms = snapshot.get("histograms", {})
        completed = counters.get("serve.requests.completed", 0)
        batches = counters.get("serve.batches", 0)
        iters = counters.get("serve.iterations.executed", 0)
        latency = histograms.get(
            "serve.request.latency_ms",
            {"count": 0, "bounds": [1.0], "counts": [0, 0]},
        )
        queued = histograms.get(
            "serve.request.queue_ms",
            {"count": 0, "bounds": [1.0], "counts": [0, 0]},
        )
        mean_iters = iters / completed if completed else float("nan")
        frames_per_s = completed / wall_s if wall_s > 0 else float("nan")
        if model is None:
            model = ThroughputModel(code.profile)
        model_iters = max(1, int(round(mean_iters))) if completed else 1
        model_frames = model.clock_hz / model.cycles_per_block(model_iters)
        model_info = model.throughput_bps(model_iters)
        pipeline_model = FramePipelineModel(
            code.profile,
            clock_hz=model.clock_hz,
            io_parallelism=model.io_parallelism,
            latency_cycles=model.latency_cycles,
        )
        depth_gauge = (
            snapshot.get("gauges", {})
            .get("serve.pipeline.depth", {})
            .get("value", 1)
        )
        modcods: dict = {}
        prefix = "serve.modcod."
        for name, value in counters.items():
            if not name.startswith(prefix):
                continue
            label, _, field = name[len(prefix):].rpartition(".")
            if label and field:
                modcods.setdefault(label, {})[field] = int(value)
        info_bps = frames_per_s * code.k
        return cls(
            rate=code.profile.name,
            wall_s=wall_s,
            submitted=counters.get("serve.requests.submitted", 0),
            completed=completed,
            rejected=counters.get("serve.requests.rejected", 0),
            expired=counters.get("serve.requests.expired", 0),
            failed=counters.get("serve.requests.failed", 0),
            batches=batches,
            mean_occupancy=(
                completed / batches if batches else float("nan")
            ),
            max_batch=max_batch,
            iterations_executed=iters,
            iterations_shed=counters.get("serve.iterations.shed", 0),
            mean_iterations=mean_iters,
            latency_p50_ms=snapshot_percentile(latency, 50),
            latency_p95_ms=snapshot_percentile(latency, 95),
            latency_p99_ms=snapshot_percentile(latency, 99),
            queue_p50_ms=snapshot_percentile(queued, 50),
            frames_per_s=frames_per_s,
            info_bps=info_bps,
            coded_bps=frames_per_s * code.n,
            model_frames_per_s=model_frames,
            model_info_bps=model_info,
            hardware_fraction=(
                info_bps / model_info if model_info else float("nan")
            ),
            stages=stage_breakdown(snapshot) or None,
            workers=workers,
            pipeline_depth=int(depth_gauge or 1),
            model_pipeline_frames_per_s=pipeline_model.frames_per_s(
                model_iters
            ),
            model_pipeline_fill_ms=pipeline_model.fill_latency_s(
                model_iters
            ) * 1e3,
            modcods=modcods or None,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able dict (NaNs become None, recursively)."""
        def clean(v):
            if isinstance(v, float) and math.isnan(v):
                return None
            if isinstance(v, dict):
                return {k: clean(x) for k, x in v.items()}
            return v

        return {k: clean(v) for k, v in self.__dict__.items()}

    def format(self) -> str:
        """Human-readable multi-line summary for the CLI."""
        lines = [
            f"service report  rate={self.rate}  wall={self.wall_s:.3f}s"
            + (f"  workers={self.workers}" if self.workers > 1 else ""),
            (
                f"  requests   submitted={self.submitted}"
                f"  completed={self.completed}"
                f"  rejected={self.rejected}  expired={self.expired}"
                + (f"  failed={self.failed}" if self.failed else "")
            ),
            (
                f"  batches    n={self.batches}"
                f"  mean_occupancy={self.mean_occupancy:.2f}"
                + (f"/{self.max_batch}" if self.max_batch else "")
            ),
            (
                f"  iterations executed={self.iterations_executed}"
                f"  shed={self.iterations_shed}"
                f"  mean/frame={self.mean_iterations:.2f}"
            ),
            (
                f"  latency    p50={self.latency_p50_ms:.2f}ms"
                f"  p95={self.latency_p95_ms:.2f}ms"
                f"  p99={self.latency_p99_ms:.2f}ms"
                f"  queue_p50={self.queue_p50_ms:.2f}ms"
            ),
            (
                f"  throughput {self.frames_per_s:.1f} frames/s"
                f"  info={self.info_bps / 1e6:.3f} Mbit/s"
                f"  coded={self.coded_bps / 1e6:.3f} Mbit/s"
            ),
            (
                f"  eq7/8 hw   {self.model_frames_per_s:.1f} frames/s"
                f"  info={self.model_info_bps / 1e6:.1f} Mbit/s"
                f"  -> software at {self.hardware_fraction * 1e2:.4f}%"
                " of modeled silicon"
            ),
        ]
        if self.pipeline_depth > 1:
            lines.append(
                f"  pipeline   depth={self.pipeline_depth}"
                f"  hw bottleneck {self.model_pipeline_frames_per_s:.1f}"
                f" frames/s  fill={self.model_pipeline_fill_ms:.3f}ms"
            )
        if self.modcods:
            for label in sorted(self.modcods):
                row = self.modcods[label]
                lines.append(
                    f"  modcod     {label}:"
                    f"  submitted={row.get('submitted', 0)}"
                    f"  completed={row.get('completed', 0)}"
                    f"  dropped={row.get('dropped', 0)}"
                )
        if self.stages:
            in_pump = [
                (name, row) for name, row in self.stages.items()
                if name not in ("pump", "enqueue")
                and row["of_pump"] == row["of_pump"]
            ]
            if in_pump:
                parts = "  ".join(
                    f"{name}={row['of_pump'] * 100:.1f}%"
                    for name, row in in_pump
                )
                lines.append(f"  stages     {parts}")
        return "\n".join(lines)
