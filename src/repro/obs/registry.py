"""Process-wide metrics registry: counters, gauges, timers, histograms.

Zero-dependency instrumentation designed to stay enabled in production
paths:

* metric acquisition is a dict lookup; recording is attribute
  arithmetic (no locks, no allocation on the hot path),
* :class:`Timer` is a context manager over ``time.perf_counter_ns``
  with a start *stack*, so the same timer object nests and re-enters
  correctly,
* a disabled registry hands out shared no-op metric singletons, making
  the cost of instrumentation a single ``if`` per acquisition,
* :meth:`MetricsRegistry.snapshot` returns a plain (picklable,
  JSON-able) dict and :meth:`MetricsRegistry.merge` folds another
  registry or snapshot back in — this is how the parallel Monte-Carlo
  engine aggregates per-shard worker registries into one view.

Merge semantics (associative, so shards can be folded in any grouping):
counters and histogram buckets sum, timers pool their count/total and
extremes, gauges take the most recently merged *set* value.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Dict, Optional, Sequence, Tuple, Union

#: Default histogram bucket upper bounds (last bucket is the overflow).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000,
)


class Counter:
    """Monotonic event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the count."""
        self.value += n


class Gauge:
    """Last-written value (e.g. a configuration or a level)."""

    __slots__ = ("name", "value", "is_set")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = None
        self.is_set = False

    def set(self, value) -> None:
        """Record the current value."""
        self.value = value
        self.is_set = True


class Timer:
    """Accumulating wall-clock timer (``perf_counter_ns`` based).

    Use as a context manager::

        with registry.timer("sim.shard.wall"):
            decode(...)

    ``__enter__`` pushes onto a start stack, so one timer object can be
    nested or re-entered; every exit records its own span.
    """

    __slots__ = ("name", "count", "total_ns", "min_ns", "max_ns",
                 "last_ns", "_starts")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_ns = 0
        self.min_ns: Optional[int] = None
        self.max_ns: Optional[int] = None
        self.last_ns = 0
        self._starts = []

    def __enter__(self) -> "Timer":
        self._starts.append(time.perf_counter_ns())
        return self

    def __exit__(self, *exc) -> bool:
        self.record_ns(time.perf_counter_ns() - self._starts.pop())
        return False

    def record_ns(self, dur_ns: int) -> None:
        """Record one span of ``dur_ns`` nanoseconds."""
        self.count += 1
        self.total_ns += dur_ns
        self.last_ns = dur_ns
        if self.min_ns is None or dur_ns < self.min_ns:
            self.min_ns = dur_ns
        if self.max_ns is None or dur_ns > self.max_ns:
            self.max_ns = dur_ns

    @property
    def total_s(self) -> float:
        """Accumulated seconds across all recorded spans."""
        return self.total_ns / 1e9

    @property
    def last_s(self) -> float:
        """Duration of the most recent span, in seconds."""
        return self.last_ns / 1e9


class Histogram:
    """Fixed-bucket histogram.

    ``bounds`` are inclusive upper bounds; one extra overflow bucket
    catches everything above the last bound, so ``counts`` has
    ``len(bounds) + 1`` entries.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum")

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        bounds = tuple(sorted(float(b) for b in bounds))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        """Mean of all observations (NaN when empty)."""
        if self.count == 0:
            return float("nan")
        return self.sum / self.count

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (0–100) from the buckets.

        Linear interpolation inside the bucket containing the target
        rank; the overflow bucket reports the last bound.  NaN when
        empty.  Accuracy is bounded by the bucket layout — pick bounds
        to bracket the latencies you care about.
        """
        if self.count == 0:
            return float("nan")
        target = q / 100.0 * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if seen + c >= target:
                if i >= len(self.bounds):
                    return self.bounds[-1]
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i]
                return lo + (hi - lo) * (target - seen) / c
            seen += c
        return self.bounds[-1]


class _NullMetric:
    """Shared no-op standing in for every metric type when disabled."""

    __slots__ = ()
    value = 0
    count = 0
    total_ns = 0
    last_ns = 0
    total_s = 0.0
    last_s = 0.0
    sum = 0.0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return float("nan")

    def record_ns(self, dur_ns: int) -> None:
        pass

    def __enter__(self) -> "_NullMetric":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: The shared no-op metric handed out by disabled registries.
NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """Named metrics with get-or-create acquisition and dict snapshots.

    Not thread-safe by design (the decoders are single-threaded and the
    Monte-Carlo engine is process-parallel); cross-process aggregation
    goes through :meth:`snapshot` / :meth:`merge`.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- acquisition ---------------------------------------------------
    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name`` (no-op when disabled)."""
        if not self.enabled:
            return NULL_METRIC
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name`` (no-op when disabled)."""
        if not self.enabled:
            return NULL_METRIC
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def timer(self, name: str) -> Timer:
        """Get or create the timer ``name`` (no-op when disabled)."""
        if not self.enabled:
            return NULL_METRIC
        metric = self._timers.get(name)
        if metric is None:
            metric = self._timers[name] = Timer(name)
        return metric

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """Get or create the histogram ``name`` (no-op when disabled).

        A second acquisition with different ``bounds`` is an error —
        bucket layouts must agree for merges to be well defined.
        """
        if not self.enabled:
            return NULL_METRIC
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name, bounds)
        elif metric.bounds != tuple(sorted(float(b) for b in bounds)):
            raise ValueError(
                f"histogram {name!r} already exists with different buckets"
            )
        return metric

    # -- lifecycle -----------------------------------------------------
    def enable(self) -> None:
        """Hand out live metrics from now on."""
        self.enabled = True

    def disable(self) -> None:
        """Hand out no-op metrics from now on (existing objects still
        record; disabling gates *acquisition*, the cheap common case)."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every metric."""
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()
        self._histograms.clear()

    # -- aggregation ---------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict view of every metric (picklable, JSON-able)."""
        return {
            "counters": {
                n: c.value for n, c in sorted(self._counters.items())
            },
            "gauges": {
                n: {"value": g.value, "is_set": g.is_set}
                for n, g in sorted(self._gauges.items())
            },
            "timers": {
                n: {
                    "count": t.count,
                    "total_ns": t.total_ns,
                    "min_ns": t.min_ns,
                    "max_ns": t.max_ns,
                    "last_ns": t.last_ns,
                }
                for n, t in sorted(self._timers.items())
            },
            "histograms": {
                n: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "count": h.count,
                    "sum": h.sum,
                }
                for n, h in sorted(self._histograms.items())
            },
        }

    def merge(
        self, other: Union["MetricsRegistry", dict]
    ) -> "MetricsRegistry":
        """Fold another registry (or a snapshot dict) into this one.

        Accepts both full :meth:`snapshot` dicts and the delta shape of
        :func:`~repro.obs.publish.snapshot_delta` (plain gauge values,
        timers without extremes) — the decode fabric merges per-chunk
        worker deltas straight into its accumulators.
        """
        snap = other.snapshot() if isinstance(other, MetricsRegistry) else other
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, g in snap.get("gauges", {}).items():
            if isinstance(g, dict):
                if g["is_set"]:
                    self.gauge(name).set(g["value"])
            else:
                self.gauge(name).set(g)
        for name, t in snap.get("timers", {}).items():
            if t["count"] == 0:
                self.timer(name)  # materialize the name
                continue
            mine = self.timer(name)
            if isinstance(mine, _NullMetric):
                continue
            mine.count += t["count"]
            mine.total_ns += t["total_ns"]
            mine.last_ns = t["last_ns"]
            t_min = t.get("min_ns")
            t_max = t.get("max_ns")
            if t_min is not None and (
                mine.min_ns is None or t_min < mine.min_ns
            ):
                mine.min_ns = t_min
            if t_max is not None and (
                mine.max_ns is None or t_max > mine.max_ns
            ):
                mine.max_ns = t_max
        for name, h in snap.get("histograms", {}).items():
            mine = self.histogram(name, h["bounds"])
            if isinstance(mine, _NullMetric):
                continue
            if list(mine.bounds) != [float(b) for b in h["bounds"]]:
                raise ValueError(
                    f"cannot merge histogram {name!r}: bucket mismatch"
                )
            for i, c in enumerate(h["counts"]):
                mine.counts[i] += c
            mine.count += h["count"]
            mine.sum += h["sum"]
        return self


def merge_snapshots(parts, *, labels: bool = True) -> dict:
    """Fold several snapshots into one, keeping per-shard sub-views.

    ``parts`` is a mapping of shard label to snapshot dict (e.g.
    ``{"fabric": ..., "w0": ..., "w1": ...}``) or a plain sequence of
    snapshots.  The returned dict is a normal merged snapshot — counters
    and histogram buckets sum, so everything that consumes snapshots
    (:class:`~repro.serve.report.ServiceReport`, ``repro obs capacity``,
    the Prometheus renderer) accepts it unchanged — plus, when ``parts``
    is labeled and ``labels`` is true, a ``"workers"`` key mapping each
    label to its own untouched sub-snapshot, so per-worker breakdowns
    survive the merge.  The top-level merge is order-invariant for
    counters, histograms, and timer count/total (the fields reports are
    built from).
    """
    if hasattr(parts, "items"):
        labeled = dict(parts)
        sequence = list(labeled.values())
    else:
        labeled = None
        sequence = list(parts)
    merged = MetricsRegistry()
    for part in sequence:
        merged.merge(part)
    snapshot = merged.snapshot()
    if labeled is not None and labels:
        snapshot["workers"] = labeled
    return snapshot


# ----------------------------------------------------------------------
_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (enabled at import)."""
    return _GLOBAL_REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _GLOBAL_REGISTRY
    previous = _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = registry
    return previous
