"""Arithmetic of the benchmark: percentiles, capacity search, shares,
span self times and the generator ledger.

Everything here is a pure function of plain numbers so it can be
tested on synthetic inputs with known answers (``perfbench/tests``).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A phase reports p99 only from at least this many completed frames.
P99_MIN_SAMPLES = 1000
#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Exact ``q``-th percentile of raw samples (linear interpolation
    between closest ranks, the numpy default)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if data[hi] == data[lo]:  # also keeps inf samples from making nan
        return data[lo]
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """The tail percentile a phase of ``n`` samples supports.

    p99 from at least :data:`P99_MIN_SAMPLES` samples; below that the
    highest whole percentile with :data:`TAIL_BEYOND` samples beyond
    it, and the maximum when fewer than ``2 * TAIL_BEYOND`` samples
    leave no such percentile above the median.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if n >= P99_MIN_SAMPLES:
        return 99.0
    if n < 2 * TAIL_BEYOND:
        return 100.0
    return float(min(99, math.floor(100.0 * (1.0 - TAIL_BEYOND / n))))


def latency_summary(
    latencies_s: Sequence[float], failed: int = 0
) -> Dict[str, float]:
    """p50 and the supported tail of one phase, in ms.

    ``failed`` frames (rejected, expired, never returned) miss every
    latency limit, so they enter the sample as +inf: a phase with
    failures reports an infinite tail once they reach it.
    """
    samples = [x * 1e3 for x in latencies_s] + [math.inf] * failed
    if not samples:
        raise ValueError("phase completed no frames")
    q = tail_quantile(len(samples))
    return {
        "p50_ms": percentile(samples, 50.0),
        "tail_ms": percentile(samples, q),
        "tail_q": q,
        "samples": len(samples),
    }


def fail_share(submitted: int, completed_ok: int) -> float:
    """(Rejected + expired + never returned + killed) / submitted: every
    submitted frame that did not come back decoded."""
    if submitted < 1:
        raise ValueError("nothing submitted")
    if not 0 <= completed_ok <= submitted:
        raise ValueError("completed must be within [0, submitted]")
    return (submitted - completed_ok) / submitted


def held_capacity(rate: float, tail_ms: float, limit_ms: float) -> float:
    """Capacity from a closed-loop saturation run.

    ``rate`` frames/s were decoded with a fixed number outstanding and
    a latency tail of ``tail_ms``.  Within the limit, that rate is the
    capacity.  Over it, Little's law (latency = outstanding / rate)
    says the rate the same service reaches with the latency held to
    the limit is ``rate * limit / tail``.
    """
    if rate < 0 or tail_ms <= 0 or limit_ms <= 0:
        raise ValueError("need rate >= 0 and positive latencies")
    return rate * min(1.0, limit_ms / tail_ms)


# ----------------------------------------------------------------------
# Spans: (name, start, end, parent index or None, request id or None)
Span = Tuple[str, float, float, Optional[int], Optional[int]]


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover
    (children clipped to the parent's interval)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, s, e, parent, _rid in spans:
        if parent is not None:
            ps, pe = spans[parent][1], spans[parent][2]
            cs, ce = max(s, ps), min(e, pe)
            if ce > cs:
                children.setdefault(parent, []).append((cs, ce))
    return [
        (e - s) - _covered(children.get(i, ()))
        for i, (_name, s, e, _p, _r) in enumerate(spans)
    ]


def ledger(
    spans: Sequence[Span], wall_start: float, wall_end: float
) -> Dict[str, float]:
    """How much of ``[wall_start, wall_end]`` the top-level spans cover.

    Returns the time each top-level span name takes inside the
    window, the covered share and the uncovered remainder (seconds).
    Overlapping top-level spans are counted once in the coverage.
    """
    if wall_end <= wall_start:
        raise ValueError("empty wall interval")
    top = [
        (max(s, wall_start), min(e, wall_end))
        for _n, s, e, parent, _r in spans
        if parent is None and e > wall_start and s < wall_end
    ]
    covered = _covered(top)
    wall = wall_end - wall_start
    by_name: Dict[str, float] = {}
    for name, s, e, parent, _r in spans:
        if parent is None and e > wall_start and s < wall_end:
            by_name[name] = by_name.get(name, 0.0) + (
                min(e, wall_end) - max(s, wall_start)
            )
    return {
        "wall_s": wall,
        "covered_share": covered / wall,
        "uncovered_s": wall - covered,
        "by_name_s": by_name,
    }


def block_fill(batch_sizes: Sequence[int], lanes: int = 32) -> float:
    """Frames decoded over SIMD lanes spent: sum(b) / sum(lanes *
    ceil(b / lanes)) — the useful share of the kernel's blocks."""
    used = sum(batch_sizes)
    spent = sum(lanes * math.ceil(b / lanes) for b in batch_sizes)
    if spent == 0:
        raise ValueError("no batches")
    return used / spent
