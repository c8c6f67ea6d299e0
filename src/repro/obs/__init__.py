"""repro.obs — zero-dependency observability for the whole stack.

Layers (see ``docs/observability.md``):

* :mod:`repro.obs.registry` — process-wide counters/gauges/timers/
  histograms, mergeable across worker processes,
* :mod:`repro.obs.trace` — typed event records with a JSONL sink and a
  version-stamped header,
* :mod:`repro.obs.iteration` — the per-iteration decoder hook protocol
  that makes convergence trajectories (and the paper's zigzag
  iteration saving) directly observable,
* :mod:`repro.obs.prom` / :mod:`repro.obs.publish` — exporters: the
  Prometheus text renderer, the periodic JSONL snapshot publisher, and
  the stdlib ``/metrics`` HTTP endpoint,
* :mod:`repro.obs.profile` — serve-pipeline stage breakdowns from the
  ``serve.stage.*`` spans,
* :mod:`repro.obs.capacity` — the capacity planner fitting measured
  offered-rate sweeps to a queueing model next to Eq. 7/8.

:mod:`repro.obs.export` reads the emitted JSONL back for the
``repro obs`` CLI commands.
"""

from .capacity import (
    CapacityPoint,
    CapacityReport,
    capacity_from_bench,
    fit_capacity,
    points_from_bench,
    points_from_loadgen,
)
from .iteration import IterationTrace, IterationTraceRecorder
from .profile import format_profile, stage_breakdown
from .prom import render_prometheus, sanitize_metric_name
from .publish import MetricsHttpServer, SnapshotPublisher, snapshot_delta
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRIC,
    Timer,
    get_registry,
    merge_snapshots,
    set_registry,
)
from .trace import TraceRecorder, package_versions, version_string

__all__ = [
    "CapacityPoint",
    "CapacityReport",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "IterationTrace",
    "IterationTraceRecorder",
    "MetricsHttpServer",
    "MetricsRegistry",
    "NULL_METRIC",
    "SnapshotPublisher",
    "Timer",
    "TraceRecorder",
    "capacity_from_bench",
    "fit_capacity",
    "format_profile",
    "get_registry",
    "merge_snapshots",
    "package_versions",
    "points_from_bench",
    "points_from_loadgen",
    "render_prometheus",
    "sanitize_metric_name",
    "set_registry",
    "snapshot_delta",
    "stage_breakdown",
    "version_string",
]
